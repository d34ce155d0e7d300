// Tests for the paper's §6 internal memory cache: a single-level
// TieringEngine (one Memory level with the default budget and
// threshold) fed only by explicit RecordAccess calls, with no Master
// access statistics.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "cluster/tiering_engine.h"
#include "common/logging.h"
#include "common/units.h"

namespace octo {
namespace {

ClusterSpec CacheSpec() {
  ClusterSpec spec;
  spec.num_racks = 1;
  spec.workers_per_rack = 3;
  MediumSpec memory{kMemoryTier, MediaType::kMemory, 8 * kMiB,
                    FromMBps(1900), FromMBps(3200)};
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {memory, hdd, hdd};
  return spec;
}

TieringOptions CacheOptions() {
  TieringOptions options;
  options.collect_access_stats = false;
  return options;
}

class SingleLevelCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cluster = Cluster::Create(CacheSpec());
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    fs_ = std::make_unique<FileSystem>(cluster_.get(),
                                       NetworkLocation("rack0", "node0"));
    CreateOptions options;
    options.rep_vector = ReplicationVector::Of(0, 0, 2);  // HDD only
    options.block_size = kMiB;
    for (const char* name : {"/hot", "/warm", "/cold"}) {
      ASSERT_TRUE(
          fs_->WriteFile(name, std::string(2 * kMiB, 'd'), options).ok());
    }
    engine_ = std::make_unique<TieringEngine>(cluster_->master(),
                                              CacheOptions());
  }

  int MemoryReplicas(const std::string& path) {
    auto located = fs_->GetFileBlockLocations(path, 0, 2 * kMiB);
    OCTO_CHECK(located.ok());
    int memory = 0;
    for (const PlacedReplica& r : (*located)[0].locations) {
      memory += r.tier == kMemoryTier ? 1 : 0;
    }
    return memory;
  }

  void Settle() {
    ASSERT_TRUE(cluster_->RunReplicationToQuiescence().ok());
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<TieringEngine> engine_;
};

TEST_F(SingleLevelCacheTest, HotFileGetsPromotedToMemory) {
  for (int i = 0; i < 5; ++i) engine_->RecordAccess("/hot");
  engine_->RecordAccess("/cold");
  auto report = engine_->Tick();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->promotions, 1);
  EXPECT_TRUE(engine_->IsManaged("/hot"));
  EXPECT_FALSE(engine_->IsManaged("/cold"));
  Settle();
  EXPECT_EQ(MemoryReplicas("/hot"), 1);
  EXPECT_EQ(MemoryReplicas("/cold"), 0);
  // The persistent replicas are untouched.
  EXPECT_EQ(fs_->GetFileStatus("/hot")->rep_vector,
            ReplicationVector::Of(1, 0, 2));
}

TEST_F(SingleLevelCacheTest, CooledFileIsEvicted) {
  for (int i = 0; i < 5; ++i) engine_->RecordAccess("/hot");
  ASSERT_TRUE(engine_->Tick().ok());
  Settle();
  ASSERT_EQ(MemoryReplicas("/hot"), 1);

  // No further accesses; advance past several decay intervals.
  auto* sim = cluster_->simulation();
  sim->Schedule(300.0, [] {});
  sim->RunUntilIdle();
  auto report = engine_->Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 1);
  EXPECT_FALSE(engine_->IsManaged("/hot"));
  Settle();
  EXPECT_EQ(MemoryReplicas("/hot"), 0);
  // Durable replicas survive eviction.
  EXPECT_EQ(fs_->GetFileStatus("/hot")->rep_vector,
            ReplicationVector::Of(0, 0, 2));
}

TEST_F(SingleLevelCacheTest, BudgetBoundsPromotions) {
  // Memory: 3 nodes x 8 MiB x 0.8 budget ≈ 19.2 MiB. Write hot files
  // totalling more than that; only some fit.
  CreateOptions options;
  options.rep_vector = ReplicationVector::Of(0, 0, 2);
  options.block_size = 8 * kMiB;
  for (int i = 0; i < 5; ++i) {
    std::string path = "/big" + std::to_string(i);
    ASSERT_TRUE(
        fs_->WriteFile(path, std::string(6 * kMiB, 'b'), options).ok());
    for (int a = 0; a < 10; ++a) engine_->RecordAccess(path);
  }
  auto report = engine_->Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->promotions, 0);
  EXPECT_LT(report->promotions, 5);
  EXPECT_LE(report->bytes_promoted,
            static_cast<int64_t>(3 * 8 * kMiB * 0.8));
}

TEST_F(SingleLevelCacheTest, UserPinnedMemoryReplicasAreNeverEvicted) {
  // The user pins /warm in memory explicitly.
  ASSERT_TRUE(
      fs_->SetReplication("/warm", ReplicationVector::Of(1, 0, 2)).ok());
  Settle();
  ASSERT_EQ(MemoryReplicas("/warm"), 1);
  // The engine never promoted it, so a cold Tick must not touch it.
  auto report = engine_->Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 0);
  Settle();
  EXPECT_EQ(MemoryReplicas("/warm"), 1);
}

TEST_F(SingleLevelCacheTest, DeletedFileLeavesPromotedSetGracefully) {
  for (int i = 0; i < 5; ++i) engine_->RecordAccess("/hot");
  ASSERT_TRUE(engine_->Tick().ok());
  Settle();
  ASSERT_TRUE(fs_->Delete("/hot").ok());
  auto* sim = cluster_->simulation();
  sim->Schedule(300.0, [] {});
  sim->RunUntilIdle();
  auto report = engine_->Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->evictions, 1);
  EXPECT_FALSE(engine_->IsManaged("/hot"));
}

TEST_F(SingleLevelCacheTest, HottestFilesWinTheBudget) {
  CreateOptions options;
  options.rep_vector = ReplicationVector::Of(0, 0, 2);
  options.block_size = 8 * kMiB;
  ASSERT_TRUE(fs_->WriteFile("/very-hot", std::string(8 * kMiB, 'v'),
                             options)
                  .ok());
  ASSERT_TRUE(
      fs_->WriteFile("/less-hot", std::string(8 * kMiB, 'l'), options).ok());
  TieringOptions tight = CacheOptions();
  // Budget for exactly one file.
  tight.levels[0].capacity_fraction = 8.0 * kMiB / (3 * 8 * kMiB);
  TieringEngine engine(cluster_->master(), tight);
  for (int i = 0; i < 10; ++i) engine.RecordAccess("/very-hot");
  for (int i = 0; i < 5; ++i) engine.RecordAccess("/less-hot");
  auto report = engine.Tick();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(engine.IsManaged("/very-hot"));
  EXPECT_FALSE(engine.IsManaged("/less-hot"));
}

}  // namespace
}  // namespace octo

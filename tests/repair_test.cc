// Repair-plane tests: the prioritized/throttled repair scheduler, worker
// decommission and maintenance draining, the lockstep/double-queue
// regression around expired in-flight copies, the event-driven monitor
// round (one test per classification event, each from a quiescent
// cluster), a seeded mass-failure chaos sweep (a whole rack — ~1/3 of
// the cluster — crashes at once) asserting full-RF convergence,
// per-worker in-flight caps, and zero acked-data loss, and a seeded
// churn sweep in which every monitor round must build the same repair
// queue as the reference full scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/file_system.h"
#include "cluster/cluster.h"
#include "common/units.h"
#include "fault/fault.h"

namespace octo {
namespace {

using fault::FaultRegistry;
using fault::Site;

ClusterSpec RepairSpec(int num_racks = 2, int workers_per_rack = 3) {
  ClusterSpec spec;
  spec.num_racks = num_racks;
  spec.workers_per_rack = workers_per_rack;
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {hdd, hdd};
  return spec;
}

void AdvanceSim(Cluster* cluster, double seconds) {
  cluster->simulation()->Schedule(seconds, [] {});
  cluster->simulation()->RunUntilIdle();
}

WorkerId WorkerOfMedium(Cluster* cluster, MediumId medium) {
  const MediumInfo* info =
      cluster->master()->cluster_state().FindMedium(medium);
  return info != nullptr ? info->worker : kInvalidWorker;
}

/// All block ids known to the master.
std::vector<BlockId> AllBlocks(Cluster* cluster) {
  std::vector<BlockId> ids;
  cluster->master()->block_manager().ForEach(
      [&](const BlockRecord& record) { ids.push_back(record.id); });
  return ids;
}

/// Turns on the reference-classifier audit of the current master.
void EnableAudit(Cluster* cluster) {
  cluster->master()->EnableRepairAuditForTest(true);
}

/// Every audited round built the full scan's queue and skipped only
/// blocks the full scan would have left as they were.
void ExpectAuditClean(Cluster* cluster) {
  RepairAuditStats audit = cluster->master()->repair_audit_stats();
  EXPECT_GT(audit.rounds, 0);
  EXPECT_EQ(audit.discrepancies, 0);
}

/// Every block has exactly `rf` replicas, all live and none on `avoid`.
void ExpectAllBlocksAt(Cluster* cluster, size_t rf,
                       WorkerId avoid = kInvalidWorker) {
  for (BlockId id : AllBlocks(cluster)) {
    const BlockRecord* record = cluster->master()->block_manager().Find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->locations.size(), rf) << "block " << id;
    for (MediumId m : record->locations) {
      EXPECT_TRUE(cluster->master()->cluster_state().MediumLive(m));
      EXPECT_NE(WorkerOfMedium(cluster, m), avoid) << "block " << id;
    }
  }
}

/// Asserts no worker's command queue holds two kCopyReplica commands for
/// the same (block, target medium) — the double-queue regression.
void ExpectNoDuplicateQueuedCopies(Cluster* cluster) {
  std::set<std::pair<BlockId, MediumId>> seen;
  for (WorkerId id : cluster->worker_ids()) {
    for (const WorkerCommand& cmd :
         cluster->master()->QueuedCommandsForTest(id)) {
      if (cmd.kind != WorkerCommand::Kind::kCopyReplica) continue;
      auto key = std::make_pair(cmd.block, cmd.target_medium);
      EXPECT_TRUE(seen.insert(key).second)
          << "block " << cmd.block << " double-queued onto medium "
          << cmd.target_medium;
    }
  }
}

// ---------------------------------------------------------------------------
// Graceful decommission

TEST(DecommissionTest, DrainsReplicasWhileServingReads) {
  auto cluster = std::move(Cluster::Create(RepairSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  std::string content(3 * 128 * 1024, 'd');
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  ASSERT_TRUE(located.ok());
  WorkerId victim = (*located)[0].locations[0].worker;
  int64_t victim_replicas = 0;
  for (MediumId m :
       cluster->master()->cluster_state().MediaOnWorker(victim)) {
    victim_replicas += static_cast<int64_t>(
        cluster->master()->block_manager().BlocksOnMedium(m).size());
  }
  ASSERT_GE(victim_replicas, 1);
  ASSERT_TRUE(cluster->master()->StartDecommission(victim).ok());
  EXPECT_EQ(cluster->master()->worker_admin_state(victim),
            WorkerAdminState::kDecommissioning);
  // Double decommission of the same worker is idempotent-ish (allowed
  // while still draining), but an unknown worker is rejected.
  EXPECT_TRUE(cluster->master()->StartDecommission(9999).IsNotFound());

  // Mid-drain: the worker is alive, its replicas still registered, and
  // reads (which may be served from it) succeed.
  EXPECT_TRUE(cluster->master()->cluster_state().FindWorker(victim)->alive);
  EXPECT_TRUE(cluster->master()->cluster_state().WorkerDraining(victim));
  EXPECT_EQ(*fs.ReadFile("/f"), content);

  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());

  // Drained: every block back at RF 3, nothing left on the victim, and
  // the lifecycle auto-advanced to kDecommissioned.
  for (BlockId id : AllBlocks(cluster.get())) {
    const BlockRecord* record = cluster->master()->block_manager().Find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->locations.size(), 3u);
    for (MediumId m : record->locations) {
      EXPECT_NE(WorkerOfMedium(cluster.get(), m), victim);
    }
  }
  EXPECT_TRUE(cluster->master()->WorkerDrained(victim));
  EXPECT_EQ(cluster->master()->worker_admin_state(victim),
            WorkerAdminState::kDecommissioned);
  RepairStats stats = cluster->master()->repair_stats();
  // One copy off the victim per replica it held, and one drain trim each.
  EXPECT_GE(stats.re_replications, victim_replicas);
  EXPECT_GE(stats.drained_replicas, victim_replicas);
  EXPECT_EQ(*fs.ReadFile("/f"), content);
  EXPECT_TRUE(
      cluster->master()->StartDecommission(victim).IsFailedPrecondition());
}

TEST(DecommissionTest, MaintenanceDrainsAndRecommissionRestoresService) {
  auto cluster = std::move(Cluster::Create(RepairSpec())).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  std::string content(128 * 1024, 'm');
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  WorkerId victim = (*located)[0].locations[0].worker;
  ASSERT_TRUE(cluster->master()->StartMaintenance(victim).ok());
  EXPECT_EQ(cluster->master()->worker_admin_state(victim),
            WorkerAdminState::kMaintenance);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  EXPECT_TRUE(cluster->master()->WorkerDrained(victim));
  // Maintenance never auto-advances to kDecommissioned: the operator
  // gets the worker back.
  EXPECT_EQ(cluster->master()->worker_admin_state(victim),
            WorkerAdminState::kMaintenance);

  ASSERT_TRUE(cluster->master()->Recommission(victim).ok());
  EXPECT_EQ(cluster->master()->worker_admin_state(victim),
            WorkerAdminState::kInService);
  EXPECT_FALSE(cluster->master()->cluster_state().WorkerDraining(victim));
  EXPECT_EQ(*fs.ReadFile("/f"), content);
}

TEST(DecommissionTest, CrashMidDrainRetargetsQueuedWork) {
  auto cluster = std::move(Cluster::Create(RepairSpec())).value();
  FaultRegistry faults(11);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  std::string content(4 * 128 * 1024, 'x');
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  WorkerId victim = (*located)[0].locations[0].worker;
  ASSERT_TRUE(cluster->master()->StartDecommission(victim).ok());

  // First drain round dispatches decommission-driven copies, then the
  // victim dies mid-drain before its next heartbeat.
  ASSERT_GE(cluster->master()->RunReplicationMonitor(), 1);
  faults.Arm({.site = Site::kDecommissionCrash, .worker = victim,
              .max_hits = 1});
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_EQ(faults.hits(Site::kDecommissionCrash), 1);
  EXPECT_TRUE(cluster->IsStopped(victim));

  // The dead drain source's queued work is re-derived against survivors:
  // convergence back to RF 3 with no replica on the victim, and every
  // committed byte intact.
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  for (BlockId id : AllBlocks(cluster.get())) {
    const BlockRecord* record = cluster->master()->block_manager().Find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->locations.size(), 3u);
    for (MediumId m : record->locations) {
      EXPECT_NE(WorkerOfMedium(cluster.get(), m), victim);
    }
  }
  EXPECT_EQ(*fs.ReadFile("/f"), content);
}

// ---------------------------------------------------------------------------
// Lockstep / double-queue regression: an expired in-flight copy must not
// be re-queued onto the same still-cooling target, and dispatch after
// expiry must re-place rather than blindly re-issue.

TEST(RepairExpiryTest, ExpiredCopyMovesOffCooledTargetAndNeverDoubleQueues) {
  auto cluster = std::move(Cluster::Create(RepairSpec())).value();
  EnableAudit(cluster.get());
  FaultRegistry faults(5);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = kMiB;
  std::string content(256 * 1024, 'e');
  ASSERT_TRUE(fs.WriteFile("/f", content, options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  BlockId block = (*located)[0].block.id;
  cluster->StopWorker((*located)[0].locations[0].worker);

  // Every copy silently fails at its target: delivered, acked, never
  // committed — the storm scenario the flat re-issue mishandled.
  faults.Arm({.site = Site::kCopyStorm});
  ASSERT_GE(cluster->master()->RunReplicationMonitor(), 1);
  auto inflight = cluster->master()->InflightCopiesForTest();
  ASSERT_EQ(inflight.size(), 1u);
  const MediumId first_target = inflight[0].second;
  ExpectNoDuplicateQueuedCopies(cluster.get());
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_GE(faults.hits(Site::kCopyStorm), 1);

  // Re-running the monitor while the copy is within its deadline must
  // not double-dispatch (idempotence under the in-flight reservation).
  EXPECT_EQ(cluster->master()->RunReplicationMonitor(), 0);
  EXPECT_EQ(cluster->master()->InflightCopiesForTest().size(), 1u);

  // Past the full timeout the jittered deadline has provably expired.
  // The retry must land on a different target: the expired one is still
  // cooling down (the copy might yet materialize there).
  AdvanceSim(cluster.get(),
             61.0);  // replication_timeout_micros = 60 s
  ASSERT_GE(cluster->master()->RunReplicationMonitor(), 1);
  inflight = cluster->master()->InflightCopiesForTest();
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_NE(inflight[0].second, first_target);
  ExpectNoDuplicateQueuedCopies(cluster.get());

  RepairStats stats = cluster->master()->repair_stats();
  EXPECT_GE(stats.expirations, 1);
  EXPECT_GE(stats.retries, 1);

  // The storm lifts; the escalated retry completes and the block heals.
  faults.ClearAll();
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->locations.size(), 3u);
  EXPECT_GE(cluster->master()->repair_stats().copies_completed, 1);
  EXPECT_EQ(*fs.ReadFile("/f"), content);
  ExpectAuditClean(cluster.get());
}

TEST(RepairExpiryTest, PersistentStormBacksOffButNeverSilentlyDrops) {
  ClusterSpec spec = RepairSpec();
  spec.master.repair.retry_budget = 2;
  auto cluster = std::move(Cluster::Create(spec)).value();
  FaultRegistry faults(7);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = kMiB;
  ASSERT_TRUE(fs.WriteFile("/f", std::string(128 * 1024, 'p'), options).ok());

  auto located = fs.GetFileBlockLocations("/f", 0, 1);
  BlockId block = (*located)[0].block.id;
  cluster->StopWorker((*located)[0].locations[0].worker);
  faults.Arm({.site = Site::kCopyStorm});

  // Let the storm grind through several expiry cycles. The quiescence
  // loop advances virtual time across both jittered deadlines and
  // exponential backoff windows, so a bounded number of rounds covers
  // many attempts.
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(12).ok());
  RepairStats stats = cluster->master()->repair_stats();
  EXPECT_GE(stats.expirations, 3);
  // Crossing the retry budget is surfaced as a counter...
  EXPECT_GE(stats.retries_exhausted, 1);
  // ...but the block is never abandoned: there is still a live in-flight
  // attempt or a scheduled future retry.
  EXPECT_TRUE(!cluster->master()->InflightCopiesForTest().empty() ||
              cluster->master()->NextRepairRetryMicros() >= 0);

  faults.ClearAll();
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  EXPECT_EQ(cluster->master()->block_manager().Find(block)->locations.size(),
            3u);
}

// ---------------------------------------------------------------------------
// Throttling: per-worker in-flight caps hold at every instant

TEST(RepairThrottleTest, PerWorkerInflightCapIsNeverExceeded) {
  ClusterSpec spec = RepairSpec();
  spec.master.repair.max_inflight_per_worker = 1;
  auto cluster = std::move(Cluster::Create(spec)).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 8; ++i) {
    std::string path = "/cap/f" + std::to_string(i);
    std::string content(128 * 1024, static_cast<char>('a' + i));
    ASSERT_TRUE(fs.WriteFile(path, content, options).ok());
    expected[path] = content;
  }

  cluster->StopWorker(cluster->worker_ids()[0]);
  int deficits = 0;
  for (BlockId id : AllBlocks(cluster.get())) {
    const BlockRecord* record = cluster->master()->block_manager().Find(id);
    size_t live = 0;
    for (MediumId m : record->locations) {
      if (cluster->master()->cluster_state().MediumLive(m)) ++live;
    }
    if (live < 3) ++deficits;
  }
  ASSERT_GE(deficits, 2) << "seeded placement left nothing to repair";

  for (int round = 0; round < 50; ++round) {
    int queued = cluster->master()->RunReplicationMonitor();
    for (WorkerId id : cluster->worker_ids()) {
      EXPECT_LE(cluster->master()->RepairInflightForWorker(id), 1);
    }
    ExpectNoDuplicateQueuedCopies(cluster.get());
    auto executed = cluster->PumpHeartbeats();
    ASSERT_TRUE(executed.ok());
    if (queued == 0 && *executed == 0) break;
  }

  RepairStats stats = cluster->master()->repair_stats();
  EXPECT_LE(stats.peak_worker_inflight, 1);
  EXPECT_GE(stats.re_replications, deficits);
  for (const auto& [path, content] : expected) {
    EXPECT_EQ(*fs.ReadFile(path), content) << path;
  }
  for (BlockId id : AllBlocks(cluster.get())) {
    EXPECT_EQ(cluster->master()->block_manager().Find(id)->locations.size(),
              3u);
  }
}

// ---------------------------------------------------------------------------
// Migration shares the repair budget (no unbudgeted byte movement)

TEST(RepairMigrationTest, RequestMigrationDispatchesThroughScheduler) {
  ClusterSpec spec;
  spec.num_racks = 1;
  spec.workers_per_rack = 3;
  MediumSpec memory{kMemoryTier, MediaType::kMemory, 8 * kMiB,
                    FromMBps(1900), FromMBps(3200)};
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {memory, hdd};
  auto cluster = std::move(Cluster::Create(spec)).value();
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = kMiB;
  options.rep_vector = ReplicationVector::Of(0, 0, 2);
  ASSERT_TRUE(fs.WriteFile("/hot", std::string(kMiB, 'h'), options).ok());

  // Promote one replica into memory — the tiering engine's move, issued
  // through the budgeted path.
  ASSERT_TRUE(cluster->master()
                  ->RequestMigration("/hot", ReplicationVector::Of(1, 0, 1))
                  .ok());
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());

  RepairStats stats = cluster->master()->repair_stats();
  EXPECT_GE(stats.migrations, 1);
  auto status = fs.GetFileStatus("/hot");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rep_vector.Get(kMemoryTier), 1);
  EXPECT_EQ(*fs.ReadFile("/hot"), std::string(kMiB, 'h'));
}

// ---------------------------------------------------------------------------
// Event-driven classification: a monitor round classifies only the blocks
// some event marked since the last round, plus those whose last
// classification queued work. Each test below starts from a quiescent
// cluster — every block classified healthy, so a round visits nothing —
// and fires one event; if that event left its block unmarked, the repair
// it calls for would never be queued. The audit runs the reference full
// scan beside every round and must agree with it.

const UserContext kRoot{"root", {}};

/// A cluster holding `files` files of `blocks_per_file` 128 KiB blocks
/// at RF 3, repaired to quiescence, with the audit on from the start.
std::unique_ptr<Cluster> QuiescentCluster(const ClusterSpec& spec, int files,
                                          int blocks_per_file) {
  auto cluster = std::move(Cluster::Create(spec)).value();
  EnableAudit(cluster.get());
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  for (int i = 0; i < files; ++i) {
    std::string content(blocks_per_file * 128 * 1024,
                        static_cast<char>('a' + i % 26));
    EXPECT_TRUE(fs.WriteFile("/q/f" + std::to_string(i), content, options)
                    .ok());
  }
  EXPECT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  EXPECT_EQ(cluster->master()->RunReplicationMonitor(), 0);
  return cluster;
}

/// One rack of `workers` single-HDD workers: an RF-3 block lacks exactly
/// one of four workers, which is then its only possible copy target.
ClusterSpec FourWorkerSpec() {
  ClusterSpec spec = RepairSpec(/*num_racks=*/1, /*workers_per_rack=*/4);
  MediumSpec hdd{kHddTier, MediaType::kHdd, 256 * kMiB, FromMBps(126),
                 FromMBps(177)};
  spec.media_per_worker = {hdd};
  spec.master.repair.max_inflight_per_worker = 1;
  return spec;
}

/// The one worker of a four-worker cluster that holds no replica of
/// `block`.
WorkerId LackingWorker(Cluster* cluster, BlockId block) {
  const BlockRecord* record = cluster->master()->block_manager().Find(block);
  std::set<WorkerId> holders;
  for (MediumId m : record->locations) {
    holders.insert(WorkerOfMedium(cluster, m));
  }
  for (WorkerId id : cluster->worker_ids()) {
    if (holders.count(id) == 0) return id;
  }
  return kInvalidWorker;
}

TEST(RepairEventTest, WorkerDeclaredDeadQueuesRepair) {
  auto cluster = QuiescentCluster(RepairSpec(), 2, 2);
  Master* master = cluster->master();
  const BlockRecord* record =
      master->block_manager().Find(AllBlocks(cluster.get()).front());
  WorkerId victim = WorkerOfMedium(cluster.get(), record->locations[0]);
  cluster->CrashWorkerSilently(victim);
  AdvanceSim(cluster.get(), 31.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_EQ(master->CheckWorkerLiveness(), std::vector<WorkerId>{victim});
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3, victim);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, MediumFailureRetriesBudgetDeferredCopies) {
  auto cluster = QuiescentCluster(FourWorkerSpec(), 1, 6);
  FaultRegistry faults(3);
  cluster->InstallFaultRegistry(&faults);
  // Fail the medium of a worker W holding two blocks whose only remaining
  // target is the same worker: with one in-flight copy per worker, the
  // failure's immediate reconcile dispatches one copy and defers the
  // other, which only the next rounds can dispatch.
  Master* master = cluster->master();
  MediumId failed = kInvalidMedium;
  for (WorkerId w : cluster->worker_ids()) {
    MediumId medium = master->cluster_state().MediaOnWorker(w).front();
    std::map<WorkerId, int> by_target;
    for (BlockId b : master->block_manager().BlocksOnMedium(medium)) {
      if (++by_target[LackingWorker(cluster.get(), b)] == 2) failed = medium;
    }
    if (failed != kInvalidMedium) break;
  }
  ASSERT_NE(failed, kInvalidMedium);
  WorkerId owner = WorkerOfMedium(cluster.get(), failed);
  faults.Arm({.site = Site::kMediumFail, .worker = owner, .medium = failed});
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_FALSE(master->cluster_state().MediumLive(failed));
  EXPECT_GE(master->repair_stats().deferred, 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3, owner);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, DecommissionStartAndStop) {
  auto cluster = QuiescentCluster(RepairSpec(), 2, 2);
  Master* master = cluster->master();
  const BlockRecord* record =
      master->block_manager().Find(AllBlocks(cluster.get()).front());
  WorkerId victim = WorkerOfMedium(cluster.get(), record->locations[0]);
  // Start: the victim's replicas stop counting.
  ASSERT_TRUE(master->StartMaintenance(victim).ok());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  // Stop before the drain copies land: the victim's replicas count again,
  // so the landed copies leave blocks over-replicated and trimmed back.
  ASSERT_TRUE(master->Recommission(victim).ok());
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  EXPECT_FALSE(master->cluster_state().WorkerDraining(victim));
  ExpectAllBlocksAt(cluster.get(), 3);
  EXPECT_GE(master->repair_stats().trims, 1);
  // A second drain of the same worker starts from a quiescent map again.
  ASSERT_TRUE(master->StartDecommission(victim).ok());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  EXPECT_EQ(master->worker_admin_state(victim),
            WorkerAdminState::kDecommissioned);
  ExpectAllBlocksAt(cluster.get(), 3, victim);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, SetReplicationUpRetriesBudgetDeferredCopies) {
  auto cluster = QuiescentCluster(FourWorkerSpec(), 1, 6);
  Master* master = cluster->master();
  // RF 4 on four workers: each block's one target is the worker it lacks;
  // six blocks over four workers put two on one target, and the
  // one-copy-per-worker cap defers the second at reconcile time.
  ASSERT_TRUE(
      master->SetReplication("/q/f0", ReplicationVector::OfTotal(4), kRoot)
          .ok());
  EXPECT_GE(master->repair_stats().deferred, 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 4);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, SetReplicationDownTrims) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 3);
  Master* master = cluster->master();
  ASSERT_TRUE(
      master->SetReplication("/q/f0", ReplicationVector::OfTotal(2), kRoot)
          .ok());
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 2);
  EXPECT_GE(master->repair_stats().trims, 3);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, CopyTargetLossRequeuesCopy) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 1);
  Master* master = cluster->master();
  ASSERT_TRUE(
      master->SetReplication("/q/f0", ReplicationVector::OfTotal(4), kRoot)
          .ok());
  auto inflight = master->InflightCopiesForTest();
  ASSERT_EQ(inflight.size(), 1u);
  // With its copy in flight the block classifies to nothing and leaves
  // the monitor's working set.
  EXPECT_EQ(master->RunReplicationMonitor(), 0);
  // The target dies before the copy lands; declaring it dead aborts the
  // copy, which must bring the block back.
  WorkerId target = WorkerOfMedium(cluster.get(), inflight[0].second);
  cluster->CrashWorkerSilently(target);
  AdvanceSim(cluster.get(), 31.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_EQ(master->CheckWorkerLiveness(), std::vector<WorkerId>{target});
  EXPECT_TRUE(master->InflightCopiesForTest().empty());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 4, target);
  EXPECT_GE(master->repair_stats().target_losses, 1);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, StoppedCopyTargetRequeuesCopy) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 1);
  Master* master = cluster->master();
  ASSERT_TRUE(
      master->SetReplication("/q/f0", ReplicationVector::OfTotal(4), kRoot)
          .ok());
  auto inflight = master->InflightCopiesForTest();
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_EQ(master->RunReplicationMonitor(), 0);
  // The target's liveness flips without a liveness check, so nothing
  // aborts the copy: only the target medium's status change can bring
  // the block back, and the dead target no longer counts.
  WorkerId target = WorkerOfMedium(cluster.get(), inflight[0].second);
  cluster->StopWorker(target);
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 4, target);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, BadBlockReportQueuesRepair) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 1);
  Master* master = cluster->master();
  BlockId block = AllBlocks(cluster.get()).front();
  MediumId medium = master->block_manager().Find(block)->locations[0];
  ASSERT_TRUE(master->ReportBadBlock(block, medium).ok());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, ReportedMissingAndStaleReplicasQueueRepair) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 2);
  Master* master = cluster->master();
  std::vector<BlockId> blocks = AllBlocks(cluster.get());
  ASSERT_EQ(blocks.size(), 2u);
  // One replica vanishes from its worker; another is restamped, as if it
  // missed a recovery. The next full report drops both.
  const BlockRecord* missing = master->block_manager().Find(blocks[0]);
  MediumId missing_on = missing->locations[0];
  ASSERT_TRUE(cluster->WorkerForMedium(missing_on)
                  ->DeleteBlock(missing_on, blocks[0])
                  .ok());
  const BlockRecord* stale = master->block_manager().Find(blocks[1]);
  MediumId stale_on = stale->locations[0];
  ASSERT_TRUE(cluster->WorkerForMedium(stale_on)
                  ->RecoverReplica(stale_on, blocks[1], stale->length,
                                   stale->genstamp + 100)
                  .ok());
  ASSERT_TRUE(cluster->SendBlockReports().ok());
  EXPECT_EQ(master->block_manager().Find(blocks[0])->locations.size(), 2u);
  EXPECT_EQ(master->block_manager().Find(blocks[1])->locations.size(), 2u);
  EXPECT_GE(master->RunReplicationMonitor(), 2);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3);
  ExpectAuditClean(cluster.get());
}

/// Allocates one block of a new file at `path` and writes 1 KiB of it
/// to the first two of its three pipeline targets only.
LocatedBlock WriteTwoOfThree(Cluster* cluster, const std::string& path,
                             std::vector<MediumId>* written) {
  Master* master = cluster->master();
  EXPECT_TRUE(master
                  ->Create(path, ReplicationVector::OfTotal(3), kMiB, false,
                           kRoot, "writer")
                  .ok());
  auto located =
      master->AddBlock(path, "writer", NetworkLocation("rack0", "node0"));
  if (!located.ok() || located->locations.size() != 3u) {
    ADD_FAILURE() << "block allocation for " << path << " failed";
    return LocatedBlock{};
  }
  for (int i = 0; i < 2; ++i) {
    MediumId m = located->locations[i].medium;
    EXPECT_TRUE(cluster->WorkerForMedium(m)
                    ->WriteBlock(m, located->block.id, std::string(1024, 's'),
                                 located->block.genstamp)
                    .ok());
    written->push_back(m);
  }
  return *located;
}

TEST(RepairEventTest, UnderReplicatedCommitsQueueRepair) {
  auto cluster = QuiescentCluster(RepairSpec(), 1, 1);
  Master* master = cluster->master();
  // A writer commits a block only two pipeline members finished.
  std::vector<MediumId> written;
  LocatedBlock block = WriteTwoOfThree(cluster.get(), "/short", &written);
  ASSERT_TRUE(master
                  ->CommitBlock("/short", "writer", block.block.id, 1024,
                                written, block.block.genstamp)
                  .ok());
  ASSERT_TRUE(master->CompleteFile("/short", "writer").ok());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  // Lease recovery closes a file on the two replicas it reconciled.
  written.clear();
  block = WriteTwoOfThree(cluster.get(), "/recovered", &written);
  ASSERT_TRUE(master
                  ->CommitBlockSynchronization(block.block.id,
                                               block.block.genstamp, 1024,
                                               written)
                  .ok());
  EXPECT_GE(master->RunReplicationMonitor(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3);
  ExpectAuditClean(cluster.get());
}

TEST(RepairEventTest, SafeModeExitAfterTakeOverQueuesRepair) {
  auto cluster = std::move(Cluster::Create(RepairSpec())).value();
  ASSERT_TRUE(cluster->EnableBackup().ok());
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  CreateOptions options;
  options.block_size = 128 * 1024;
  ASSERT_TRUE(fs.WriteFile("/t", std::string(3 * 128 * 1024, 't'), options)
                  .ok());
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  const BlockRecord* record = cluster->master()->block_manager().Find(
      AllBlocks(cluster.get()).front());
  WorkerId victim = WorkerOfMedium(cluster.get(), record->locations[0]);

  // The primary dies, and so does a replica holder: the promoted master
  // rebuilds its block map from the survivors' reports alone.
  cluster->CrashMaster();
  cluster->CrashWorkerSilently(victim);
  ASSERT_TRUE(cluster->PromoteBackup().ok());
  EnableAudit(cluster.get());
  ASSERT_TRUE(cluster->master()->in_safe_mode());
  ASSERT_TRUE(cluster->SendBlockReports().ok());
  ASSERT_FALSE(cluster->master()->in_safe_mode());
  // Leaving safe mode ran a round over the whole rebuilt map.
  EXPECT_GE(cluster->master()->NumQueuedCommands(), 1);
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(50).ok());
  ExpectAllBlocksAt(cluster.get(), 3, victim);
  EXPECT_EQ(*fs.ReadFile("/t"), std::string(3 * 128 * 1024, 't'));
  ExpectAuditClean(cluster.get());
}

// ---------------------------------------------------------------------------
// Mass-failure chaos: a whole rack (one third of the cluster) crashes at
// once. Placement's rack-spread rule guarantees every block keeps at
// least one live replica, and the repair plane must converge back to
// full RF under tight per-worker caps without ever exceeding them.

void RunMassFailure(uint64_t seed) {
  ClusterSpec spec = RepairSpec(/*num_racks=*/3, /*workers_per_rack=*/3);
  spec.master.seed = seed;
  spec.master.repair.max_inflight_per_worker = 2;
  auto cluster = std::move(Cluster::Create(spec)).value();
  EnableAudit(cluster.get());
  FaultRegistry faults(seed);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));

  std::map<std::string, std::string> expected;
  CreateOptions options;
  options.block_size = 128 * 1024;
  for (int i = 0; i < 6; ++i) {
    std::string path = "/mass/f" + std::to_string(i);
    std::string content(2 * 128 * 1024,
                        static_cast<char>('a' + (i + seed) % 26));
    ASSERT_TRUE(fs.WriteFile(path, content, options).ok());
    expected[path] = content;
  }

  // The rack dies: every worker whose location says "rack<r>" crashes
  // silently, a correlated mass failure of ~33% of the cluster.
  const std::string doomed_rack = "rack" + std::to_string(seed % 3);
  std::vector<WorkerId> crashed;
  for (WorkerId id : cluster->worker_ids()) {
    const WorkerInfo* w = cluster->master()->cluster_state().FindWorker(id);
    ASSERT_NE(w, nullptr);
    if (w->location.rack() == doomed_rack) {
      cluster->CrashWorkerSilently(id);
      crashed.push_back(id);
    }
  }
  ASSERT_EQ(crashed.size(), 3u);

  // The failure is only detected after the worker timeout: survivors
  // keep heartbeating, the doomed rack stays silent.
  AdvanceSim(cluster.get(), 31.0);
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  EXPECT_EQ(cluster->master()->CheckWorkerLiveness().size(), 3u);

  // Repair storm under tight caps, checked at every round.
  int rounds = 0;
  for (; rounds < 100; ++rounds) {
    int queued = cluster->master()->RunReplicationMonitor();
    for (WorkerId id : cluster->worker_ids()) {
      ASSERT_LE(cluster->master()->RepairInflightForWorker(id), 2);
    }
    ExpectNoDuplicateQueuedCopies(cluster.get());
    auto executed = cluster->PumpHeartbeats();
    ASSERT_TRUE(executed.ok());
    if (queued == 0 && *executed == 0) break;
  }
  ASSERT_LT(rounds, 100) << "no convergence";

  // Full RF on live workers, caps held, zero acked-data loss.
  RepairStats stats = cluster->master()->repair_stats();
  EXPECT_LE(stats.peak_worker_inflight, 2);
  EXPECT_GE(stats.re_replications, 1);
  std::set<WorkerId> dead(crashed.begin(), crashed.end());
  for (BlockId id : AllBlocks(cluster.get())) {
    const BlockRecord* record = cluster->master()->block_manager().Find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->locations.size(), 3u);
    for (MediumId m : record->locations) {
      EXPECT_EQ(dead.count(WorkerOfMedium(cluster.get(), m)), 0u);
    }
  }
  for (const auto& [path, content] : expected) {
    auto data = fs.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, content) << path;
  }

  // Epilogue: decommission a survivor mid-storm-recovery and crash it
  // mid-drain; its queued drain work must re-target cleanly.
  WorkerId survivor = kInvalidWorker;
  for (WorkerId id : cluster->worker_ids()) {
    if (dead.count(id) == 0) {
      survivor = id;
      break;
    }
  }
  ASSERT_NE(survivor, kInvalidWorker);
  ASSERT_TRUE(cluster->master()->StartDecommission(survivor).ok());
  ASSERT_GE(cluster->master()->RunReplicationMonitor(), 0);
  faults.Arm({.site = Site::kDecommissionCrash, .worker = survivor,
              .max_hits = 1});
  ASSERT_TRUE(cluster->PumpHeartbeats().ok());
  ASSERT_TRUE(cluster->RunReplicationToQuiescence(60).ok());
  for (const auto& [path, content] : expected) {
    auto data = fs.ReadFile(path);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, content) << path;
  }
  ExpectAuditClean(cluster.get());
}

TEST(RepairChaosTest, MassFailureSeed1) { RunMassFailure(1); }
TEST(RepairChaosTest, MassFailureSeed2) { RunMassFailure(2); }
TEST(RepairChaosTest, MassFailureSeed3) { RunMassFailure(3); }

// ---------------------------------------------------------------------------
// Audited churn: seeded rack crashes, worker restarts, medium failures,
// decommission and maintenance, SetReplication churn, deletes, copy
// storms and clock jumps, with a monitor round and a heartbeat pump after
// each. Every round's queue must equal the reference full scan's, and
// the block map's per-medium replica index must equal a brute-force scan.

void ExpectIndexMatchesScan(Cluster* cluster) {
  std::map<MediumId, std::vector<BlockId>> scanned;
  cluster->master()->block_manager().ForEach([&](const BlockRecord& record) {
    for (MediumId m : record.locations) scanned[m].push_back(record.id);
  });
  for (const auto& [id, info] : cluster->master()->cluster_state().media()) {
    std::vector<BlockId> expected = scanned[id];
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(cluster->master()->block_manager().BlocksOnMedium(id), expected)
        << "medium " << id;
    EXPECT_EQ(cluster->master()->block_manager().NumBlocksOnMedium(id),
              static_cast<int64_t>(expected.size()));
  }
}

void RunAuditedChurn(uint64_t seed) {
  ClusterSpec spec = RepairSpec(/*num_racks=*/3, /*workers_per_rack=*/3);
  spec.master.seed = seed;
  spec.master.repair.max_inflight_per_worker = 2;
  auto cluster = std::move(Cluster::Create(spec)).value();
  EnableAudit(cluster.get());
  FaultRegistry faults(seed);
  cluster->InstallFaultRegistry(&faults);
  FileSystem fs(cluster.get(), NetworkLocation("rack0", "node0"));
  Master* master = cluster->master();
  CreateOptions options;
  options.block_size = 128 * 1024;
  constexpr int kFiles = 10;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs.WriteFile("/churn/f" + std::to_string(i),
                             std::string(2 * 128 * 1024, 'c'), options)
                    .ok());
  }

  std::mt19937_64 rng(seed);
  const std::vector<WorkerId>& workers = cluster->worker_ids();
  auto pick_worker = [&] { return workers[rng() % workers.size()]; };
  constexpr int kSteps = 80;
  for (int step = 0; step < kSteps; ++step) {
    switch (rng() % 9) {
      case 0: {  // a whole rack crashes
        std::string rack = "rack" + std::to_string(rng() % 3);
        for (WorkerId id : workers) {
          if (master->cluster_state().FindWorker(id)->location.rack() ==
              rack) {
            cluster->CrashWorkerSilently(id);
          }
        }
        break;
      }
      case 1:  // one crashed worker comes back, with whatever it held
        cluster->RestartWorker(pick_worker());
        break;
      case 2: {
        WorkerId w = pick_worker();
        auto media = master->cluster_state().MediaOnWorker(w);
        faults.Arm({.site = Site::kMediumFail, .worker = w,
                    .medium = media[rng() % media.size()]});
        break;
      }
      case 3:
        (void)(rng() % 2 == 0 ? master->StartDecommission(pick_worker())
                              : master->StartMaintenance(pick_worker()));
        break;
      case 4:
        (void)master->Recommission(pick_worker());
        break;
      case 5:
        (void)master->SetReplication(
            "/churn/f" + std::to_string(rng() % kFiles),
            ReplicationVector::OfTotal(1 + static_cast<int>(rng() % 4)),
            kRoot);
        break;
      case 6:
        (void)master->Delete("/churn/f" + std::to_string(rng() % kFiles),
                             /*recursive=*/false, kRoot);
        break;
      case 7:
        if (rng() % 2 == 0) {
          faults.Arm({.site = Site::kCopyStorm, .max_hits = 3});
        } else {
          (void)cluster->SendBlockReports();
        }
        break;
      default:
        AdvanceSim(cluster.get(), 5.0 + static_cast<double>(rng() % 40));
        (void)master->CheckWorkerLiveness();
        break;
    }
    master->RunReplicationMonitor();
    ASSERT_TRUE(cluster->PumpHeartbeats().ok());
    ExpectIndexMatchesScan(cluster.get());
  }
  RepairAuditStats audit = master->repair_audit_stats();
  EXPECT_GE(audit.rounds, kSteps);
  EXPECT_EQ(audit.discrepancies, 0);
}

TEST(RepairAuditChaosTest, ChurnSeed1) { RunAuditedChurn(1); }
TEST(RepairAuditChaosTest, ChurnSeed2) { RunAuditedChurn(2); }
TEST(RepairAuditChaosTest, ChurnSeed3) { RunAuditedChurn(3); }

}  // namespace
}  // namespace octo

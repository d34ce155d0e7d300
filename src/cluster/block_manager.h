#ifndef OCTOPUSFS_CLUSTER_BLOCK_MANAGER_H_
#define OCTOPUSFS_CLUSTER_BLOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/replication_vector.h"
#include "storage/block.h"

namespace octo {

/// The Master's record of one block: its file, size, the replication the
/// file requests, and the media currently confirmed to hold replicas.
struct BlockRecord {
  BlockId id = kInvalidBlock;
  std::string file;  // owning file path (for diagnostics/invalidation)
  /// Stable inode id of the owning file (FileStatus::file_id). `file`
  /// goes stale when the file is renamed; the id does not, so read
  /// statistics folded from heartbeats stay attributable. 0 = unknown
  /// (records rebuilt from a checkpoint predating the file-id field).
  uint64_t file_id = 0;
  int64_t length = 0;
  /// The block's current generation stamp. A reported replica carrying
  /// an older genstamp is stale: never adopted into `locations`, never
  /// used as a re-replication source, and queued for invalidation.
  uint64_t genstamp = 0;
  ReplicationVector expected;  // the owning file's replication vector
  std::vector<MediumId> locations;
};

/// The Master's block-location map (paper §2.1: "the mapping of file
/// blocks to Workers and storage media"). Pure bookkeeping; placement
/// decisions live in the policies and replication logic in the Master.
///
/// Thread-safe: records are hash-partitioned over internal reader-writer
/// stripes keyed by block id, so lookups and mutations of unrelated
/// blocks do not serialize. Stripe mutexes are leaves in the lock order;
/// the per-medium replica index has one mutex of its own, taken inside a
/// stripe lock by the mutators and alone by its readers.
/// Exception: the raw pointers from Find() are only stable
/// while no other thread removes blocks — callers that hold them across
/// statements must serialize with mutators (the Master's service lock
/// does); use Snapshot() from unserialized contexts.
class BlockManager {
 public:
  BlockManager() = default;
  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Allocates a fresh block id.
  BlockId NextBlockId() {
    return next_block_id_.fetch_add(1, std::memory_order_relaxed);
  }

  Status AddBlock(BlockRecord record);
  Status RemoveBlock(BlockId id);

  /// Registers a confirmed replica on `medium`.
  Status AddReplica(BlockId id, MediumId medium);
  /// Removes a replica record; NotFound if absent.
  Status RemoveReplica(BlockId id, MediumId medium);

  /// Updates the expected replication after setReplication.
  Status SetExpected(BlockId id, const ReplicationVector& expected,
                     int64_t* length_out = nullptr);

  /// See the class comment for the pointer-stability contract.
  const BlockRecord* Find(BlockId id) const;
  bool Contains(BlockId id) const;

  /// Copies the record under the stripe lock; safe from any thread.
  /// Returns false when the block is unknown.
  bool Snapshot(BlockId id, BlockRecord* out) const;

  /// All blocks that have a replica on `medium` (used when a medium or
  /// worker dies). Ascending id order. Answered from the per-medium
  /// replica index: O(replicas on the medium), not O(blocks).
  std::vector<BlockId> BlocksOnMedium(MediumId medium) const;
  /// Number of blocks with a replica on `medium` (O(1); the drain
  /// emptiness check).
  int64_t NumBlocksOnMedium(MediumId medium) const;

  /// Iterates over every block record in ascending id order (the
  /// monitor round after image load or safe-mode exit, and the reference
  /// full scan). The visitor receives a copy taken just before the call,
  /// so it may itself call back into the manager.
  void ForEach(const std::function<void(const BlockRecord&)>& fn) const;

  int64_t NumBlocks() const;

  /// Drops every record and resets the id allocator (image load rebuilds
  /// the map from scratch).
  void Reset();

 private:
  static constexpr size_t kStripeCount = 64;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::map<BlockId, BlockRecord> blocks;
  };

  Stripe& StripeFor(BlockId id) {
    return stripes_[static_cast<uint64_t>(id) % kStripeCount];
  }
  const Stripe& StripeFor(BlockId id) const {
    return stripes_[static_cast<uint64_t>(id) % kStripeCount];
  }

  /// Index maintenance for one replica entering or leaving `record`'s
  /// location list. The caller holds the record's stripe lock.
  void IndexAdd(BlockId id, MediumId medium);
  void IndexRemove(const BlockRecord& record, MediumId medium);

  std::atomic<BlockId> next_block_id_{1};
  std::array<Stripe, kStripeCount> stripes_;
  /// medium -> blocks with a replica on it, kept by the four mutators.
  mutable std::mutex index_mu_;
  std::unordered_map<MediumId, std::set<BlockId>> by_medium_;
};

}  // namespace octo

#endif  // OCTOPUSFS_CLUSTER_BLOCK_MANAGER_H_

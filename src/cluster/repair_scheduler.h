#ifndef OCTOPUSFS_CLUSTER_REPAIR_SCHEDULER_H_
#define OCTOPUSFS_CLUSTER_REPAIR_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "storage/block.h"
#include "storage/media_type.h"

namespace octo {

/// Priority buckets for background repair / migration work, highest
/// urgency first (HDFS UnderReplicatedBlocks discipline, extended with
/// the tiering dimensions of the paper's replication vectors). Lower
/// numeric value = dispatched first.
enum class RepairPriority : int8_t {
  /// One live replica left anywhere — data loss is one failure away.
  kLastReplica = 0,
  /// The deficit exists only because replicas sit on draining
  /// (decommissioning / maintenance) workers; copy them off before the
  /// operator takes the worker away.
  kDecommission = 1,
  /// Fewer total replicas than the vector asks for.
  kUnderReplicated = 2,
  /// Right total count, wrong tiers (tiering-engine migration or a
  /// replication-vector edit moving bytes between tiers).
  kMisTiered = 3,
  /// More replicas than asked for — trim, cheapest and least urgent.
  kOverReplicated = 4,
};
inline constexpr int kNumRepairPriorities = 5;

const char* RepairPriorityName(RepairPriority p);

/// Why an in-flight repair copy was abandoned. Determines whether the
/// block is charged a retry (backoff) and the target a cooldown.
enum class RepairAbort : int8_t {
  /// The jittered dispatch deadline passed without a commit. The copy
  /// may still land later, so the target gets a cooldown (dedupe) and
  /// the block enters exponential backoff.
  kTimeout = 0,
  /// The target worker died or its medium failed; the copy can never
  /// land. Re-dispatch elsewhere immediately, no penalty.
  kTargetLost = 1,
  /// A full block report proved the replica never materialized. Backoff
  /// (the target worker is likely sick) but no cooldown: ground truth
  /// says nothing is pending there.
  kFailedReported = 2,
};

/// One unit of repair work: create (or, for trims, delete) one replica
/// of `block`. Queued per monitor round and drained in priority order.
struct RepairWork {
  BlockId block = kInvalidBlock;
  /// Tier the new copy must land on (kUnspecifiedTier = any tier).
  TierId tier = 0;
  RepairPriority priority = RepairPriority::kUnderReplicated;
  /// Trim work: delete `victim` instead of copying. `drain` marks the
  /// trim of a fully-evacuated draining replica (counted separately).
  bool is_trim = false;
  bool drain = false;
  MediumId victim = kInvalidMedium;

  bool operator==(const RepairWork&) const = default;
};

/// Observable counters of the repair plane (Master::repair_stats()).
/// Monotonic over the life of one master instance; Reset() zeroes them
/// (image reload = new instance semantics).
struct RepairStats {
  int64_t re_replications = 0;   // copies dispatched to fix a deficit
  int64_t migrations = 0;        // copies dispatched at kMisTiered
  int64_t copies_completed = 0;  // dispatched copies that committed
  int64_t expirations = 0;       // copies abandoned on deadline expiry
  int64_t target_losses = 0;     // copies abandoned with the target
  int64_t failed_reported = 0;   // copies disproven by a block report
  int64_t retries = 0;           // re-dispatches of a failed block
  int64_t retries_exhausted = 0; // blocks that crossed the retry budget
  int64_t deferred = 0;          // dispatches blocked by a full budget
  int64_t backoff_deferred = 0;  // dispatches blocked by backoff
  int64_t trims = 0;             // over-replication deletes issued
  int64_t drained_replicas = 0;  // draining replicas safely trimmed
  int64_t peak_worker_inflight = 0;  // high-water in-flight copies/worker
};

/// Tuning knobs for the repair plane (threaded from MasterOptions).
struct RepairThrottleOptions {
  /// Max concurrent repair copies targeting any one worker.
  int max_inflight_per_worker = 8;
  /// Max bytes concurrently being copied onto any one medium.
  int64_t max_bytes_per_medium = int64_t{512} << 20;
  /// Exponential backoff between failed copies of the same block. The
  /// first failure retries on the next round (escalated, off the cooled
  /// target); from the second on the delay is base * 2^(attempts - 2),
  /// capped, then multiplied by a seeded jitter in [0.5, 1.5).
  int64_t backoff_base_micros = 5'000'000;
  int64_t backoff_max_micros = 120'000'000;
  /// Attempts after which `retries_exhausted` is counted. Retries keep
  /// going at the capped backoff — bounded rate, never a silent drop.
  int retry_budget = 8;
  /// How long an expired (block, target) pair is excluded from placement
  /// so a slow-but-delivered copy cannot be double-queued onto the same
  /// target (satellite: the flat-timeout double-queue bug).
  int64_t target_cooldown_micros = 30'000'000;
  /// Base per-copy deadline, multiplied by a seeded jitter in
  /// [0.75, 1.0) so mass-failure expirations never fire in lockstep
  /// while the configured timeout stays a hard upper bound.
  int64_t copy_deadline_micros = 60'000'000;
};

/// The Master's unified repair/migration scheduler: a per-round
/// priority-bucketed work queue plus the *persistent* throttle state
/// that shapes how fast the queue drains — per-worker in-flight caps,
/// per-medium bytes-in-flight budgets, jittered per-copy deadlines,
/// seeded-jittered exponential backoff with bounded retry budgets, and
/// target cooldowns that dedupe re-dispatch after an expiry.
///
/// This is a passive data structure with no thread of its own and no
/// locking: the Master owns one instance and calls it only while
/// holding `service_mu_` (see the master.h lock hierarchy — the
/// scheduler is part of the service-state leaf, never takes locks, and
/// never calls back into the Master). Queue contents are transient:
/// every monitor round clears them and re-derives the work of the blocks
/// it classifies from block-map ground truth, so the queue can never go
/// stale or leak; only budgets, backoff, and cooldowns persist between
/// rounds.
class RepairScheduler {
 public:
  RepairScheduler() : RepairScheduler(RepairThrottleOptions{}, 42) {}
  RepairScheduler(RepairThrottleOptions options, uint64_t seed)
      : options_(options), rng_(seed ^ 0x5ebdull) {}

  const RepairThrottleOptions& options() const { return options_; }
  void set_options(const RepairThrottleOptions& o) { options_ = o; }

  // -- per-round priority queue --------------------------------------------

  /// Drops all queued (not yet dispatched) work. Called at the start of
  /// every classification round; in-flight accounting is untouched.
  void ClearQueue();
  void Enqueue(const RepairWork& work);
  /// Pops the highest-priority queued item (FIFO within a bucket).
  bool PopNext(RepairWork* out);
  int queued() const;
  /// The queued items in the order PopNext would return them.
  std::vector<RepairWork> QueuedWork() const;

  // -- throttle admission ---------------------------------------------------

  /// True when a copy of `bytes` onto `target_medium` (hosted by
  /// `target_worker`) fits both the worker in-flight cap and the medium
  /// bytes budget. Trims and deletes are never throttled.
  bool CanDispatch(WorkerId target_worker, MediumId target_medium,
                   int64_t bytes) const;

  /// Records a dispatched copy and returns its jittered deadline
  /// (absolute micros). Charges the worker/medium budgets and, when the
  /// block had failed attempts, counts a retry.
  int64_t NoteDispatched(BlockId block, MediumId target_medium,
                         WorkerId target_worker, int64_t bytes,
                         RepairPriority priority, int64_t now_micros);

  /// The copy committed: release budgets, clear the block's backoff.
  void NoteCompleted(BlockId block, MediumId target_medium);

  /// The copy was abandoned: release budgets and apply the per-reason
  /// penalty (see RepairAbort).
  void NoteAborted(BlockId block, MediumId target_medium, RepairAbort reason,
                   int64_t now_micros);

  /// In-flight copies whose jittered deadline has passed.
  std::vector<std::pair<BlockId, MediumId>> ExpiredCopies(
      int64_t now_micros) const;

  // -- backoff / dedupe gates ----------------------------------------------

  bool InBackoff(BlockId block, int64_t now_micros) const;
  /// Failed attempts recorded for `block` (0 = clean).
  int AttemptsFor(BlockId block) const;
  /// Escalates `base` one level toward kLastReplica when the block has
  /// failed attempts (failed copies re-enqueue at escalated priority).
  RepairPriority EscalatedPriority(BlockId block, RepairPriority base) const;
  /// Drops backoff state for a block that no longer needs repair.
  void ClearBackoff(BlockId block);
  /// Earliest instant strictly after `now_micros` at which the repair
  /// plane can act again (a backoff window closing or an in-flight copy
  /// deadline expiring), or -1 when none. Lets a driver (the sim
  /// quiescence loop) sleep exactly until then.
  int64_t NextRetryMicros(int64_t now_micros) const;

  /// True while (block, target) is cooling down after an expiry and must
  /// be excluded from placement.
  bool TargetInCooldown(BlockId block, MediumId target_medium,
                        int64_t now_micros) const;
  /// Cooled-down target media for `block` (placement exclusion list).
  std::vector<MediumId> CooldownTargets(BlockId block,
                                        int64_t now_micros) const;

  // -- introspection --------------------------------------------------------

  int WorkerInflight(WorkerId worker) const;
  int64_t MediumBytesInflight(MediumId medium) const;
  /// All media with repair bytes currently in flight toward them.
  /// Placement charges these as scheduled size (see DispatchCopyLocked).
  const std::map<MediumId, int64_t>& medium_bytes_inflight() const {
    return medium_bytes_;
  }
  int TotalInflight() const { return static_cast<int>(inflight_.size()); }

  RepairStats& stats() { return stats_; }
  const RepairStats& stats() const { return stats_; }

  /// Forgets everything — queue, in-flight accounting, backoff,
  /// cooldowns, stats. Called when the master reloads an image (the
  /// block map it mirrored is gone).
  void Reset();

 private:
  struct Inflight {
    WorkerId worker = kInvalidWorker;
    int64_t bytes = 0;
    RepairPriority priority = RepairPriority::kUnderReplicated;
    int64_t deadline_micros = 0;
  };
  struct Backoff {
    int attempts = 0;
    int64_t not_before_micros = 0;
  };

  double Jitter(double lo, double hi);
  void ReleaseLocked(const std::pair<BlockId, MediumId>& key,
                     const Inflight& entry);

  RepairThrottleOptions options_;
  std::mt19937_64 rng_;

  std::deque<RepairWork> buckets_[kNumRepairPriorities];
  // In-flight repair copies keyed (block, target medium). Mirrors the
  // Master's inflight_copies_ map, with throttle bookkeeping attached.
  std::map<std::pair<BlockId, MediumId>, Inflight> inflight_;
  std::map<WorkerId, int> worker_inflight_;
  std::map<MediumId, int64_t> medium_bytes_;
  std::map<BlockId, Backoff> backoff_;
  // (block, target) pairs excluded from placement until the stored time.
  std::map<std::pair<BlockId, MediumId>, int64_t> cooldowns_;
  RepairStats stats_;
};

}  // namespace octo

#endif  // OCTOPUSFS_CLUSTER_REPAIR_SCHEDULER_H_

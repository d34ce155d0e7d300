#ifndef OCTOPUSFS_CLUSTER_MASTER_H_
#define OCTOPUSFS_CLUSTER_MASTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ranges>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/block_manager.h"
#include "cluster/messages.h"
#include "cluster/repair_scheduler.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "core/cluster_state.h"
#include "core/placement.h"
#include "core/replication_vector.h"
#include "core/retrieval.h"
#include "namespacefs/edit_log.h"
#include "namespacefs/fsimage.h"
#include "namespacefs/image_store.h"
#include "namespacefs/lease_manager.h"
#include "namespacefs/lock_manager.h"
#include "namespacefs/namespace_tree.h"
#include "storage/throughput_profiler.h"
#include "topology/topology.h"

namespace octo {

namespace fault {
class FaultRegistry;
}  // namespace fault

/// Outcome of a pipeline-recovery request (mid-write failure handling):
/// the surviving replicas must be truncated to the writer's acked offset
/// and restamped with `genstamp` before streaming resumes. When the
/// placement policy can supply a replacement for the failed pipeline
/// member, `replacement` names it.
struct PipelineRecoveryResult {
  uint64_t genstamp = 0;
  bool has_replacement = false;
  PlacedReplica replacement;
};

/// Observer of namespace lifecycle events that invalidate path-keyed or
/// identity-keyed soft state held outside the Master (the tiering
/// engine's heat and managed-replica accounting). Callbacks fire on the
/// mutating thread AFTER the operation committed and after every Master
/// lock has been released — an implementation may take its own mutex but
/// must not call back into the Master from the callback.
class NamespaceEventListener {
 public:
  virtual ~NamespaceEventListener() = default;
  /// `src` was renamed to `dst` (also fired for trash moves, which are
  /// renames under the hood). Directory renames carry the directory
  /// paths; listeners re-key descendants by prefix.
  virtual void OnRename(const std::string& src, const std::string& dst) = 0;
  /// `path` was destroyed (file or directory subtree), or an existing
  /// file at `path` was replaced by an overwriting create — either way
  /// the inode previously at `path` is gone.
  virtual void OnDelete(const std::string& path) = 0;
};

/// One file's aggregated access statistics, drained from the Master by
/// the tiering engine (see EnableAccessStats/DrainFileAccessStats).
struct FileAccessStat {
  uint64_t file_id = 0;
  /// Last-known path (a hint: rename hooks keep listeners current; a
  /// stat staged before a rename may still carry the old path).
  std::string path;
  /// Access count: file opens + per-block worker-served reads.
  int64_t accesses = 0;
  int64_t bytes_read = 0;
};

/// Counters of the repair-classification audit (see
/// Master::EnableRepairAuditForTest).
struct RepairAuditStats {
  /// Monitor rounds audited.
  int64_t rounds = 0;
  /// Rounds whose repair queue differed from the reference full scan's,
  /// plus skipped blocks the full scan would have pruned or cleared.
  int64_t discrepancies = 0;
};

/// Administrative lifecycle of a worker (orthogonal to liveness, which
/// heartbeats drive). Draining states keep the worker serving reads and
/// acting as a copy source while the repair scheduler evacuates its
/// replicas through the throttled pipeline.
enum class WorkerAdminState : int8_t {
  kInService = 0,
  /// Permanent removal: drains, then auto-transitions to
  /// kDecommissioned once no replica remains on its media.
  kDecommissioning = 1,
  /// Temporary drain (kernel upgrade, disk swap): like decommissioning
  /// but never auto-finishes; Recommission returns it to service.
  kMaintenance = 2,
  /// Fully drained; safe to stop the process.
  kDecommissioned = 3,
};

struct MasterOptions {
  /// Single-writer lease duration for files under construction.
  int64_t lease_duration_micros = 60 * kMicrosPerSecond;
  /// A worker missing heartbeats for this long is declared dead.
  int64_t worker_timeout_micros = 30 * kMicrosPerSecond;
  /// Base deadline for an in-flight repair copy: a dispatched
  /// kCopyReplica not committed within this window (multiplied by the
  /// repair scheduler's seeded jitter in [0.75, 1.0) so mass-failure
  /// expirations never fire in lockstep) is abandoned, the block enters
  /// exponential backoff, and the copy is re-placed on the next monitor
  /// round.
  int64_t replication_timeout_micros = 60 * kMicrosPerSecond;
  /// A command delivered in a heartbeat response but not acknowledged
  /// (Master::AckCommand) within this window is redelivered on the next
  /// heartbeat — the worker may have crashed after receiving it.
  int64_t command_timeout_micros = 30 * kMicrosPerSecond;
  bool enable_permissions = false;
  /// When set, Delete moves entries into /.Trash/<user>/ instead of
  /// destroying them (HDFS trash parity); ExpungeTrash reclaims space.
  bool enable_trash = false;
  uint64_t seed = 42;
  /// When set, the edit log is persisted to this file.
  std::string edit_log_path;
  /// When set, the master's metadata lives in this directory as a
  /// segmented, checksummed edit log (EditLog::OpenSegmented) plus
  /// CRC-trailed checkpoint images (ImageStore): WriteCheckpoint() and
  /// RecoverFromLocalStorage() become available, and a journal write
  /// failure fail-stops the master into safe mode instead of dropping
  /// acked edits. Takes precedence over edit_log_path.
  std::string metadata_dir;
  /// How many checkpoint images metadata_dir retains. Keeping more than
  /// one lets recovery fall back to an older image (with a longer journal
  /// tail) when the newest fails its CRC check.
  int images_retained = 2;
  /// Safe-mode exit threshold (HDFS dfs.namenode.safemode.threshold-pct):
  /// a recovering master refuses placement/re-replication/rebalancing and
  /// namespace mutations until at least this fraction of the block
  /// population it knows about has at least one reported replica.
  double safe_mode_threshold = 0.999;
  /// Candidate-selection mode for the default MOOP placement policy (and
  /// so for every path that delegates to it: block allocation, pipeline
  /// replacement, re-replication, the rebalancer's and cache manager's
  /// moves). kExhaustive is the exact golden-tested oracle; kSampled
  /// keeps decisions sublinear in cluster size (DESIGN.md §11) and is
  /// the right choice for 1000+ worker clusters. Ignored after
  /// SetPlacementPolicy installs a custom policy.
  PlacementMode placement_mode = PlacementMode::kExhaustive;
  /// Throttle model of the repair plane (the unified repair/migration
  /// scheduler every background copy — re-replication, decommission
  /// drain, tiering migration, rebalancer move — is dispatched
  /// through): per-worker in-flight caps, per-medium bytes budgets,
  /// jittered deadlines, seeded-jittered exponential backoff, bounded
  /// retry budgets, and expired-target cooldowns. The defaults are
  /// deliberately generous (they only bite during storms); chaos tests
  /// and the repair bench tighten them explicitly.
  RepairThrottleOptions repair;
};

/// The OctopusFS (Primary) Master (paper §2.1): owns the directory
/// namespace and the block-location map, admits workers and their storage
/// media into tiers, serves placement and retrieval decisions through the
/// pluggable policies, and drives replication management (§5).
///
/// All methods are synchronous and thread-safe; unlike the single global
/// namespace lock of the HDFS NameNode, the metadata plane is concurrent:
///
///  - Namespace operations take per-path reader/writer locks from an
///    internal NamespaceLockManager. Reads (GetFileStatus, ListDirectory,
///    GetBlockLocations, GetQuotaUsage) run fully in parallel; flat
///    mutations (Create, Mkdirs of an existing parent, Append,
///    CompleteFile, CommitBlock, SetReplication, non-recursive Delete)
///    serialize only when their lock footprints overlap; structural
///    operations (Rename, recursive Delete, ancestor-creating
///    Mkdirs/Create, SetOwner, SetMode, SetQuota, LoadImage,
///    CommitBlockSynchronization) briefly exclude everything.
///  - Cluster/service state (ClusterState, command queues, pending blocks,
///    in-flight copies, the placement/retrieval policies and their rng) is
///    guarded by a single internal service mutex; heartbeats, reports, and
///    the replication monitor serialize on it but never block namespace
///    reads.
///  - Journal records are appended (under the path's namespace lock, so
///    journal order matches the linearization order) and group-committed:
///    each mutation calls CommitJournal() after releasing its locks, so
///    concurrent mutations share one flush and every op is durable before
///    it is acknowledged. A failed commit (ENOSPC, short write, torn
///    write) is fail-stop: the master enters safe mode, the mutation is
///    NOT acked, and every later mutation is rejected — an acked edit is
///    never silently dropped (DESIGN.md §14).
///  - WriteCheckpoint() is fuzzy (non-stalling): it holds the structural
///    lock only long enough to roll the journal segment, then serializes
///    the namespace directory-by-directory under per-stripe read locks
///    while mutations proceed; renames committed during the walk are
///    recorded (RecordRenameForCheckpoint, inside the mutation's own
///    structural section) and patched into the image afterwards. Recovery
///    loads the image in FsImage::Mode::kFuzzy and replays the tail in
///    ReplayMode::kRecovery, which absorbs the resulting overlap.
///  - Heartbeat/block-report payloads may also be staged lock-free-ish via
///    StageHeartbeatStats/StageBlockReport and folded in by a single
///    FlushStagedReports call holding the service mutex once.
///
/// Lock order (outermost first): namespace structure/stripe locks ->
/// namespace-tree quota mutex -> service mutex -> lease/block stripe
/// mutexes (the block map's replica-index mutex nests inside its
/// stripes), the edit-log mutex, and the access-stats mutex (leaves).
/// EditLog::Commit is always invoked with no other lock held. The tiering
/// engine's internal mutex sits ABOVE this whole hierarchy: the engine
/// calls into the Master while holding it, and the Master only calls the
/// engine (listener callbacks) after releasing every lock.
class Master {
 public:
  Master(MasterOptions options, Clock* clock);

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // -- policy configuration -------------------------------------------------

  /// Defaults: MOOP placement, OctopusFS tier-aware retrieval.
  void SetPlacementPolicy(std::unique_ptr<PlacementPolicy> policy);
  void SetRetrievalPolicy(std::unique_ptr<RetrievalPolicy> policy);
  PlacementPolicy* placement_policy() { return placement_.get(); }
  RetrievalPolicy* retrieval_policy() { return retrieval_.get(); }

  // -- cluster setup ----------------------------------------------------------

  void DefineTier(TierInfo tier);
  Result<WorkerId> RegisterWorker(const NetworkLocation& location,
                                  double net_bps);
  /// Admits one storage medium of a registered worker into its tier.
  /// `profiled` carries the worker's launch-time measured rates.
  Result<MediumId> RegisterMedium(WorkerId worker, const MediumSpec& spec,
                                  const ProfiledRates& profiled);

  /// Re-admits a worker under its existing id (registration with a
  /// promoted master after failover). Idempotent.
  Status ReRegisterWorker(WorkerId id, const NetworkLocation& location,
                          double net_bps);
  /// Re-admits a medium under its existing id on a re-registered worker.
  Status ReRegisterMedium(WorkerId worker, MediumId id,
                          const MediumSpec& spec,
                          const ProfiledRates& profiled);

  // -- worker lifecycle (graceful decommission / maintenance) ---------------

  /// Starts draining `worker` for permanent removal: its media leave the
  /// placement indexes, every replica on them stops counting toward
  /// replication factors (driving decommission-priority copies through
  /// the repair scheduler), and the worker keeps serving reads and
  /// sourcing copies until the drain completes, at which point it
  /// auto-transitions to kDecommissioned. FailedPrecondition if the
  /// worker is already decommissioned.
  Status StartDecommission(WorkerId worker);
  /// Same drain, but for a temporary outage: the state stays
  /// kMaintenance until Recommission.
  Status StartMaintenance(WorkerId worker);
  /// Returns a draining (or drained) worker to service; its media
  /// rejoin the placement indexes and its replicas count again.
  Status Recommission(WorkerId worker);
  WorkerAdminState worker_admin_state(WorkerId worker) const;
  /// True when no block replica remains on any medium of `worker`.
  bool WorkerDrained(WorkerId worker) const;

  // -- heartbeats, reports, liveness ----------------------------------------

  /// Ingests a heartbeat and returns the commands due for that worker:
  /// those never delivered plus those delivered longer than
  /// `command_timeout_micros` ago but never acknowledged. Commands stay
  /// queued (and are redelivered) until AckCommand.
  Result<std::vector<WorkerCommand>> Heartbeat(const HeartbeatPayload& hb);

  /// Acknowledges execution of a delivered command; the master stops
  /// redelivering it. NotFound if the id is unknown (already acked, or
  /// dropped when the worker was declared dead).
  Status AckCommand(WorkerId worker, uint64_t command_id);

  /// Full block report reconciliation: unknown replicas are scheduled for
  /// deletion, missing ones removed from the map (paper §5: the Master
  /// "can detect the situations of under- or over-replication during the
  /// periodic block reports"). `reporter_epoch` is the master epoch the
  /// worker believes it reports to; a mismatch (a report addressed to a
  /// predecessor or successor of this master) is fenced off. 0 =
  /// legacy/unfenced. In safe mode, orphan deletions are deferred until
  /// exit so reconstruction cannot destroy data it has not yet accounted.
  Status ProcessBlockReport(WorkerId worker, const BlockReport& report,
                            uint64_t reporter_epoch = 0);

  /// Batched-report ingestion: stages a full block report in a per-master
  /// staging buffer (its own small mutex; never touches the service
  /// mutex), to be applied later by FlushStagedReports. Lets many report
  /// threads hand off work without convoying on the service lock.
  void StageBlockReport(WorkerId worker, BlockReport report,
                        uint64_t reporter_epoch = 0);
  /// Stages the statistics portion of a heartbeat (liveness, capacity and
  /// connection stats, media health) for batched application. Command
  /// delivery and lease reaping still require the full Heartbeat call.
  void StageHeartbeatStats(HeartbeatPayload hb);
  /// Applies everything staged so far under one service-mutex critical
  /// section. Returns the number of staged payloads applied (payloads
  /// failing validation, e.g. epoch fencing, are dropped and counted as
  /// not applied).
  int FlushStagedReports();

  /// Marks workers without recent heartbeats dead; returns the newly dead.
  std::vector<WorkerId> CheckWorkerLiveness();

  // -- namespace operations ---------------------------------------------------

  Status Mkdirs(const std::string& path, const UserContext& ctx);
  Result<std::vector<FileStatus>> ListDirectory(const std::string& path,
                                                const UserContext& ctx) const;
  Result<FileStatus> GetFileStatus(const std::string& path,
                                   const UserContext& ctx) const;
  Status Rename(const std::string& src, const std::string& dst,
                const UserContext& ctx);
  /// Deletes a path; block invalidations are queued to the hosting
  /// workers. Returns the number of blocks scheduled for deletion. With
  /// trash enabled the entry is moved to /.Trash/<user>/ instead (and 0
  /// is returned) unless `skip_trash` or the path is already in trash.
  Result<int> Delete(const std::string& path, bool recursive,
                     const UserContext& ctx, bool skip_trash = false);

  /// Destroys everything under the calling user's trash directory.
  /// Returns the number of blocks scheduled for deletion.
  Result<int> ExpungeTrash(const UserContext& ctx);
  Status SetQuota(const std::string& path, int slot, int64_t bytes);
  Result<QuotaUsage> GetQuotaUsage(const std::string& path) const;
  /// chown (superuser only) / chmod (owner or superuser).
  Status SetOwner(const std::string& path, const std::string& owner,
                  const std::string& group, const UserContext& ctx);
  Status SetMode(const std::string& path, uint16_t mode,
                 const UserContext& ctx);

  // -- file write path ---------------------------------------------------------

  /// Creates a file and grants `lease_holder` the write lease.
  Status Create(const std::string& path, const ReplicationVector& rv,
                int64_t block_size, bool overwrite, const UserContext& ctx,
                const std::string& lease_holder);

  /// Reopens a completed file for appending (block-aligned: new data goes
  /// into fresh blocks) and grants `lease_holder` the write lease.
  Status Append(const std::string& path, const UserContext& ctx,
                const std::string& lease_holder);

  /// Allocates the next block of an under-construction file and chooses
  /// replica locations via the placement policy (paper §3.1).
  Result<LocatedBlock> AddBlock(const std::string& path,
                                const std::string& lease_holder,
                                const NetworkLocation& client);

  /// Abandons a block allocated by AddBlock (pipeline setup failed).
  Status AbandonBlock(const std::string& path, const std::string& lease_holder,
                      BlockId block);

  /// Confirms a block: `succeeded` lists the media whose pipeline writes
  /// completed (possibly fewer than requested; the replication monitor
  /// tops the block up later). `genstamp` is the stamp the client wrote
  /// the replicas under; a mismatch with the block's current pending
  /// stamp means the commit comes from a fenced-off (recovered-past)
  /// writer and is rejected. 0 = legacy caller, accept the pending stamp.
  Status CommitBlock(const std::string& path, const std::string& lease_holder,
                     BlockId block, int64_t length,
                     const std::vector<MediumId>& succeeded,
                     uint64_t genstamp = 0);

  /// Mid-write pipeline failure (HDFS updateBlockForPipeline +
  /// getAdditionalDatanode): allocates a fresh generation stamp for the
  /// under-construction block, narrows its pending targets to `survivors`,
  /// and tries to place one replacement medium. The caller truncates the
  /// survivors to its acked offset, restamps them, bootstraps the
  /// replacement from a survivor, and resumes streaming — replicas left on
  /// the failed member keep the old stamp and are invalidated as stale.
  Result<PipelineRecoveryResult> RecoverPipeline(
      const std::string& path, const std::string& lease_holder, BlockId block,
      const std::vector<MediumId>& survivors, const NetworkLocation& client);

  /// Completion callback of a kRecoverBlock command (HDFS
  /// commitBlockSynchronization): the recovery primary reconciled the
  /// surviving replicas of an abandoned under-construction block to
  /// `length` bytes under `genstamp`. Registers the block with the
  /// reconciled length and closes the file. With no good replicas the
  /// tail block is dropped and the file closes at its committed length.
  /// Stale attempts (stamp no longer pending) are rejected with
  /// FailedPrecondition.
  Status CommitBlockSynchronization(BlockId block, uint64_t genstamp,
                                    int64_t length,
                                    const std::vector<MediumId>& good_media);

  Status CompleteFile(const std::string& path,
                      const std::string& lease_holder);
  Status RenewLease(const std::string& path, const std::string& lease_holder);

  // -- file read path -----------------------------------------------------------

  /// All blocks of a file with replica locations ordered best-first for
  /// `client` by the retrieval policy (paper §4).
  Result<std::vector<LocatedBlock>> GetBlockLocations(
      const std::string& path, const NetworkLocation& client);

  /// A client failed to read a replica (corruption / missing): drop the
  /// location and let the monitor re-replicate.
  Status ReportBadBlock(BlockId block, MediumId medium);

  /// Orders an arbitrary replica list for a reader at `client` with the
  /// active retrieval policy (used by compute engines scheduling reads).
  std::vector<MediumId> OrderReplicasFor(const NetworkLocation& client,
                                         const std::vector<MediumId>& media);

  // -- replication vector management (paper §2.3, §5) ---------------------------

  /// Changes a file's replication vector; per-tier replica additions,
  /// moves, and removals are reconciled asynchronously via worker
  /// commands.
  Status SetReplication(const std::string& path, const ReplicationVector& rv,
                        const UserContext& ctx);

  /// Changes a file's replication vector on behalf of a background
  /// mover (the tiering engine): same journaled vector edit as
  /// SetReplication, but the resulting copies are classified as
  /// mis-tiered migrations and dispatched through the repair
  /// scheduler's budgets, so migration bandwidth shares the one repair
  /// budget and yields to more urgent work. Superuser semantics (no
  /// permission checks beyond existence).
  Status RequestMigration(const std::string& path,
                          const ReplicationVector& rv);

  Result<std::vector<StorageTierReport>> GetStorageTierReports() const;

  // -- replication monitor --------------------------------------------------------

  /// One monitor round: expires overdue copies, prunes dead replicas,
  /// classifies blocks into the repair scheduler's priority buckets and
  /// dispatches copies for under-replication and deletions for
  /// over-replication under the repair budgets. Returns the number of
  /// commands queued.
  ///
  /// Classification is event-driven (DESIGN.md §15): a round visits only
  /// the blocks marked dirty since the previous round — a block-map
  /// mutation, an in-flight copy completing or aborting, or a status
  /// change (death, revival, failure, drain start or stop) of a medium
  /// holding a replica or an in-flight copy of it — plus the
  /// blocks whose last classification queued work. Image load and
  /// safe-mode exit mark every block. The resulting queue is the one a
  /// scan of every block would build, at a cost set by what changed.
  int RunReplicationMonitor();

  /// Confirms a replica created by a kCopyReplica command.
  Status CommitReplica(BlockId block, MediumId medium);

  /// Schedules moving one replica of `block` off `from` onto another
  /// medium of the same tier (chosen by the placement policy). The old
  /// replica is invalidated only after the copy confirms. Used by the
  /// rebalancer.
  Status ScheduleReplicaMove(BlockId block, MediumId from);

  // -- access statistics & namespace events (automated tiering feed) ---------

  /// Turns the per-file access-statistics buffer on. Off by default: with
  /// no tiering engine attached the buffer would only grow. While
  /// enabled, GetBlockLocations (file opens), Append, and the
  /// `block_reads` folded from worker heartbeats accumulate into it.
  void EnableAccessStats(bool enabled) {
    access_stats_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool access_stats_enabled() const {
    return access_stats_enabled_.load(std::memory_order_relaxed);
  }
  /// Swaps out and returns everything accumulated since the last drain.
  std::vector<FileAccessStat> DrainFileAccessStats();

  /// Installs the listener notified of renames/deletes (one at a time;
  /// the tiering engine registers itself). Fired outside all locks.
  void SetNamespaceListener(NamespaceEventListener* listener) {
    namespace_listener_.store(listener, std::memory_order_release);
  }
  /// Removes `listener` if it is the one installed (compare-and-clear, so
  /// a short-lived engine cannot unhook a longer-lived one).
  void ClearNamespaceListener(NamespaceEventListener* listener) {
    namespace_listener_.compare_exchange_strong(listener, nullptr);
  }

  // -- transfer accounting ----------------------------------------------------------

  /// Connection bookkeeping feeding f_lb and the retrieval formula. In
  /// the paper these counts travel via heartbeats; in-process we update
  /// the Master's view directly when a transfer starts/ends.
  void NoteTransferStarted(WorkerId worker, MediumId medium);
  void NoteTransferEnded(WorkerId worker, MediumId medium);

  // -- recovery, fencing, safe mode ------------------------------------------

  /// Installs a namespace checkpoint (fsimage contents) into a fresh
  /// Master, optionally replaying the edit log tail written after the
  /// checkpoint, and rebuilds block records (replica locations then
  /// arrive via block reports, as in HDFS). Write leases are rebuilt for
  /// files still under construction (from journaled holders), the fencing
  /// epoch is restored from replayed EPOCH records, and — when any blocks
  /// exist — the master enters safe mode until enough of them are
  /// reported.
  Status LoadImage(const std::string& image,
                   const std::vector<std::string>& edit_entries = {},
                   int64_t edits_from = 0);

  /// Writes a fuzzy checkpoint to the metadata directory (see the class
  /// comment) and purges journal segments no retained image needs.
  /// Returns the checkpoint's txid: the image plus the journal tail from
  /// that txid reproduces the namespace. Mutations proceed during the
  /// entire image serialization; only one checkpoint runs at a time
  /// (FailedPrecondition otherwise, or without a metadata_dir).
  Result<int64_t> WriteCheckpoint();

  /// Rebuilds the namespace from the metadata directory after a crash:
  /// newest image + replay of every journal record from its txid. An
  /// image failing CRC verification falls back to the next older one
  /// (with a longer tail); with no image at all the whole journal is
  /// replayed from an empty namespace. Corruption when no combination
  /// works. Requires metadata_dir.
  Status RecoverFromLocalStorage();

  /// Routes journal and image writes through `registry`'s durability
  /// fault sites (kJournalTornWrite, kJournalDiskFull, kImageCorrupt,
  /// kImageCrashMidRename). The registry itself is not thread-safe, so
  /// the installed hooks serialize their consults; `registry` must
  /// outlive this master.
  void InstallDurabilityFaults(fault::FaultRegistry* registry);

  /// True once a journal write has failed; the master is fail-stopped
  /// (safe mode that reports cannot lift).
  bool journal_failed() const {
    return journal_failed_.load(std::memory_order_relaxed);
  }

  /// Monotonic fencing epoch. Starts at 1; advanced only at takeover.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  /// Raises the epoch to at least `floor` (epochs folded into a
  /// checkpoint, carried by the backup's metadata).
  void NoteEpochFloor(uint64_t floor);
  /// Advances the epoch by one and journals it (takeover). All commands
  /// queued so far are re-stamped dead: workers at the new epoch will
  /// reject anything issued before this call.
  void BumpEpoch();

  /// Highest generation stamp this master has allocated (0 = none yet).
  uint64_t current_genstamp() const {
    return genstamp_.load(std::memory_order_relaxed);
  }
  /// Raises the generation-stamp allocator to at least `floor` (stamps
  /// folded into a checkpoint, carried by the backup's metadata), so a
  /// promoted master never re-issues a stamp its predecessor used.
  void NoteGenstampFloor(uint64_t floor);

  bool in_safe_mode() const {
    return safe_mode_.load(std::memory_order_relaxed);
  }
  /// Fraction of the block population known at safe-mode entry that has
  /// at least one reported replica (1.0 outside safe mode).
  double SafeModeReportedFraction() const;
  /// Manual override (the HDFS `dfsadmin -safemode leave`): exits safe
  /// mode regardless of the reported fraction and reconciles.
  void ForceExitSafeMode();
  /// Blocks that had no replica anywhere when safe mode ended (lost data;
  /// nothing to re-replicate from).
  const std::vector<BlockId>& lost_blocks() const { return lost_blocks_; }

  // -- accessors -------------------------------------------------------------------

  ClusterState& cluster_state() { return state_; }
  const ClusterState& cluster_state() const { return state_; }
  BlockManager& block_manager() { return blocks_; }
  const NamespaceTree& namespace_tree() const { return *tree_; }
  NetworkTopology& topology() { return topology_; }
  EditLog* edit_log() { return log_.get(); }
  /// Non-null only with a metadata_dir.
  ImageStore* image_store() { return images_.get(); }
  LeaseManager& lease_manager() { return leases_; }
  Clock* clock() { return clock_; }

  /// Queued-and-unacknowledged command count, for tests.
  int NumQueuedCommands() const;

  /// Commands re-sent after their delivery expired unacknowledged.
  int64_t commands_redelivered() const { return commands_redelivered_; }

  /// Snapshot of in-flight copy targets (block, target medium), for tests.
  std::vector<std::pair<BlockId, MediumId>> InflightCopiesForTest() const;

  /// Copy of the queued (unacknowledged) commands for one worker.
  std::vector<WorkerCommand> QueuedCommandsForTest(WorkerId worker) const;

  /// Snapshot of the repair plane's counters (see RepairStats).
  RepairStats repair_stats() const;
  /// In-flight repair copies currently targeting `worker`'s media.
  int RepairInflightForWorker(WorkerId worker) const;
  /// Earliest time a backed-off block becomes dispatchable again, or -1
  /// when nothing is in backoff. Drivers (and the sim quiescence loop)
  /// can sleep exactly until then instead of polling.
  int64_t NextRepairRetryMicros() const;

  /// Test hook: while enabled, every monitor round also runs the
  /// reference classifier — the full scan over every block — and counts
  /// a discrepancy when its queue differs from the round's, or when a
  /// block the round skipped has a replica to prune or backoff history
  /// to clear. Off by default; never enabled outside tests.
  void EnableRepairAuditForTest(bool enabled);
  RepairAuditStats repair_audit_stats() const;

 private:
  struct PendingBlock {
    std::string file;
    std::vector<MediumId> targets;
    /// Generation stamp the block is currently being written under;
    /// bumped by pipeline recovery and lease recovery to fence off
    /// writers that missed the recovery.
    uint64_t genstamp = 0;
  };

  /// A staged block report awaiting FlushStagedReports.
  struct StagedBlockReport {
    WorkerId worker = 0;
    BlockReport report;
    uint64_t reporter_epoch = 0;
  };

  // All private helpers below are *Locked: they require service_mu_ to be
  // held by the caller (and, where they touch the tree, the appropriate
  // namespace lock).

  /// Liveness + capacity/connection stats + per-medium stats of one
  /// heartbeat (no command delivery, lease reaping, or failed-media
  /// handling).
  Status ApplyHeartbeatStatsLocked(const HeartbeatPayload& hb);
  /// Body of ProcessBlockReport.
  Status ApplyBlockReportLocked(WorkerId worker, const BlockReport& report,
                                uint64_t reporter_epoch);
  /// Body of ReportBadBlock.
  Status ReportBadBlockLocked(BlockId block, MediumId medium);
  /// Body of RunReplicationMonitor (also run when leaving safe mode).
  int RunReplicationMonitorLocked();
  /// Body of CommitBlockSynchronization; caller also holds the structural
  /// namespace lock.
  Status CommitBlockSynchronizationLocked(
      BlockId block, uint64_t genstamp, int64_t length,
      const std::vector<MediumId>& good_media);

  void QueueCommand(MediumId target_medium, WorkerCommand command);
  /// Releases all bookkeeping for a copy that was abandoned: the
  /// move-target space reservation, the pending move, the in-flight
  /// entry, the scheduler's budget charge, and any still-queued
  /// kCopyReplica command for it. `reason` decides the scheduler's
  /// penalty (backoff / cooldown / none — see RepairAbort).
  void AbortInflightCopy(BlockId block, MediumId target, RepairAbort reason);
  using InflightMap = std::map<std::pair<BlockId, MediumId>, int64_t>;

  /// Classifies one block's replica state against its expected vector:
  /// returns the copies/trims it needs, in enqueue order, and sets
  /// `*clear_backoff` when the block is healthy (or lost) and its
  /// failure history should go. Reads only; both the monitor and the
  /// reference classifier of the audit call it.
  std::vector<RepairWork> ClassifyBlock(const BlockRecord& record,
                                        bool* clear_backoff) const;
  /// Enqueues ClassifyBlock's work into the repair scheduler's priority
  /// buckets (nothing is dispatched yet) and applies its backoff clear.
  /// Returns true when work was queued.
  bool ClassifyBlockLocked(const BlockRecord& record);
  /// Drains the scheduler's queue in priority order, dispatching each
  /// item that passes the backoff gate and the worker/medium budgets as
  /// a worker command. Returns commands queued.
  int DispatchRepairsLocked();
  /// Classify + dispatch for a single block (the reconcile entry point
  /// used by commit/report/failure paths). Returns commands queued.
  int ReconcileBlock(const BlockRecord& record);
  /// Dispatches one queued copy (placement, budgets, command, in-flight
  /// accounting). Returns commands queued (0 when gated or placement
  /// found no target).
  int DispatchCopyLocked(const RepairWork& work);
  /// Dispatches one queued trim (delete `work.victim`).
  int DispatchTrimLocked(const RepairWork& work);
  /// Moves kDecommissioning workers whose media hold no more replicas to
  /// kDecommissioned (called after a monitor round).
  void AdvanceDrainsLocked();
  /// Prunes replicas on dead workers from a block record.
  void PruneDeadReplicas(const BlockRecord& record);
  /// Queues `block` for the next monitor round's classification.
  void MarkBlockDirtyLocked(BlockId block);
  /// Queues every block (image load, safe-mode exit).
  void MarkAllBlocksDirtyLocked();
  /// Compares each medium's status (live, draining, registered) with the
  /// previous round's view and marks every block with a replica or an
  /// in-flight copy on a medium that changed. O(media).
  void MarkChangedMediaLocked();
  /// Drains the dirty set and merges it with the needed set: the blocks
  /// this round classifies, ascending.
  std::vector<BlockId> TakeBlocksToClassifyLocked();
  /// The audit's reference classifier: classifies every block, returns
  /// the queue a full scan would build, and counts skipped blocks (not
  /// in `visited`) the full scan would prune or clear.
  std::vector<RepairWork> ReferenceClassifyLocked(
      const std::vector<BlockId>& visited);
  /// The in-flight copies of `block`: its range of inflight_copies_,
  /// which orders by (block, target).
  std::ranges::subrange<InflightMap::const_iterator> InflightCopiesOf(
      BlockId block) const;
  std::vector<MediumId> LiveLocations(const BlockRecord& record) const;
  PlacedReplica MakePlacedReplica(MediumId medium) const;
  /// Abandons in-flight copies whose jittered deadline has passed
  /// (charging backoff + target cooldown through the scheduler).
  void ExpireInflight();
  /// Unavailable while in safe mode or after a journal failure, OK
  /// otherwise (mutation gate).
  Status CheckNotInSafeMode(const char* op) const;
  /// Wraps EditLog::Commit with the fail-stop policy: a failed commit
  /// latches journal_failed_ and drops the master into safe mode, so the
  /// un-journaled edit is never acked and no further mutation is
  /// accepted. Called with no lock held, like Commit itself.
  Status CommitJournal();
  /// Body of LoadImage/RecoverFromLocalStorage: installs `image` +
  /// journal tail as the namespace, with the deserializer and replayer
  /// running in the given modes (strict for exact images, fuzzy/recovery
  /// for fuzzy-checkpoint output).
  Status LoadImageInternal(const std::string& image,
                           const std::vector<std::string>& edit_entries,
                           int64_t edits_from, FsImage::Mode image_mode,
                           ReplayMode replay_mode);
  /// Records a committed rename for the running checkpoint's post-walk
  /// patch. Must be called inside the mutation's structural-lock section
  /// (so the record and the walk cannot interleave mid-rename); no-op
  /// when no checkpoint is active.
  void RecordRenameForCheckpoint(const std::string& src,
                                 const std::string& dst);
  /// Exits safe mode once the reported fraction crosses the threshold.
  void MaybeExitSafeMode();
  /// Queues deletions for orphans deferred during safe mode and records
  /// blocks that ended reconstruction with no replica at all.
  void LeaveSafeMode();
  /// Allocates the next generation stamp and journals it. Requires
  /// service_mu_ (allocation order and its journal records stay in step
  /// with the decisions they stamp).
  uint64_t NextGenstamp();
  /// Lease expiry on a file with an under-construction tail block: picks
  /// a recovery primary among the live pending targets and dispatches a
  /// kRecoverBlock command (the file closes when the primary calls back
  /// via CommitBlockSynchronization). Files with no pending block — or no
  /// live replica of it — are force-completed immediately. Unlike the
  /// other private helpers this one acquires its own locks (namespace
  /// kMutate on `path`, then service_mu_) — callers must hold neither.
  void StartLeaseRecovery(const std::string& path);
  /// A worker reported this medium's device dead: takes it out of the
  /// live indexes, drops its replicas (no invalidation commands — the
  /// disk is gone), aborts copies targeting it, and re-replicates.
  void HandleFailedMedium(MediumId medium);

  /// Folds one access observation into the stats buffer (no-op while the
  /// buffer is disabled or file_id is 0). Takes access_mu_, a leaf like
  /// the block/lease stripes — safe under service_mu_ and under namespace
  /// locks.
  void RecordFileAccess(uint64_t file_id, const std::string& path,
                        int64_t accesses, int64_t bytes);
  /// Fires the namespace listener's callbacks. Must be called with NO
  /// Master lock held (see NamespaceEventListener).
  void NotifyRename(const std::string& src, const std::string& dst);
  void NotifyDelete(const std::string& path);

  MasterOptions options_;
  Clock* clock_;
  Random rng_;

  /// Per-path namespace locking (see the class comment). Mutable: reads
  /// through const methods still take shared locks.
  mutable NamespaceLockManager nslocks_;
  /// Guards all cluster/service state: state_, topology_, the policies
  /// and rng_, pending_blocks_, command_queues_, inflight_copies_,
  /// pending_moves_, deferred_orphans_, lost_blocks_, and the id/epoch/
  /// genstamp allocators' journal ordering.
  mutable std::mutex service_mu_;
  /// Guards only the staging buffers below; never held together with any
  /// other lock.
  std::mutex staging_mu_;
  std::vector<HeartbeatPayload> staged_heartbeats_;
  std::vector<StagedBlockReport> staged_reports_;

  /// Per-file access-statistics buffer for the tiering engine. access_mu_
  /// is a leaf in the lock order (acquired under service_mu_ when folding
  /// heartbeats and under namespace read locks when recording opens;
  /// never held while taking any other lock).
  std::atomic<bool> access_stats_enabled_{false};
  mutable std::mutex access_mu_;
  std::map<uint64_t, FileAccessStat> access_stats_;
  /// Rename/delete observer (the tiering engine). Atomic: set/cleared at
  /// engine construction, read by every mutating thread.
  std::atomic<NamespaceEventListener*> namespace_listener_{nullptr};

  std::unique_ptr<NamespaceTree> tree_;
  std::unique_ptr<EditLog> log_;
  /// Checkpoint image store; non-null only with a metadata_dir.
  std::unique_ptr<ImageStore> images_;
  /// True while WriteCheckpoint runs. Mutators read it (acquire) inside
  /// their structural sections to decide whether to record renames; the
  /// checkpoint sets/clears it under the structural lock.
  std::atomic<bool> checkpoint_active_{false};
  /// Guards checkpoint_renames_ (leaf lock, held only for a push/swap).
  std::mutex checkpoint_mu_;
  /// (src, dst) of renames committed while the checkpoint walk ran; the
  /// post-walk patch re-serializes each dst subtree.
  std::vector<std::pair<std::string, std::string>> checkpoint_renames_;
  /// Latched by the first failed journal commit (see CommitJournal).
  std::atomic<bool> journal_failed_{false};
  LeaseManager leases_;
  BlockManager blocks_;
  ClusterState state_;
  NetworkTopology topology_;

  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<RetrievalPolicy> retrieval_;

  WorkerId next_worker_id_ = 0;
  MediumId next_medium_id_ = 0;

  std::map<BlockId, PendingBlock> pending_blocks_;
  struct QueuedCommand {
    WorkerCommand command;
    /// Last heartbeat delivery time; -1 = never delivered.
    int64_t delivered_micros = -1;
  };
  std::map<WorkerId, std::vector<QueuedCommand>> command_queues_;
  uint64_t next_command_id_ = 1;
  int64_t commands_redelivered_ = 0;
  /// (block, medium) -> time a copy command was queued; counted as a
  /// replica during reconciliation to avoid duplicate scheduling.
  InflightMap inflight_copies_;
  /// (block, copy target) -> source medium to invalidate once the copy
  /// confirms (replica moves scheduled by the rebalancer).
  std::map<std::pair<BlockId, MediumId>, MediumId> pending_moves_;
  /// The unified repair/migration scheduler (priority buckets, budgets,
  /// backoff). Guarded by service_mu_ like the maps it mirrors; passive
  /// (never takes locks, never calls back into the master).
  RepairScheduler repair_;
  /// Administrative lifecycle per worker; absent = kInService. Guarded
  /// by service_mu_; the draining flag is mirrored into state_.
  std::map<WorkerId, WorkerAdminState> admin_states_;
  /// Event-driven repair classification (RunReplicationMonitor), all
  /// guarded by service_mu_. Blocks whose classification inputs changed
  /// since their last classification (deduplicated, so never larger than
  /// the block map plus in-flight copies); with all_blocks_dirty_ set,
  /// every block is and individual marks are skipped.
  std::unordered_set<BlockId> dirty_blocks_;
  bool all_blocks_dirty_ = false;
  /// Blocks whose last classification queued work, ascending; each round
  /// reclassifies them until they classify to nothing.
  std::vector<BlockId> needed_blocks_;
  /// Each registered medium's status at the last round: 0 = not live,
  /// 1 = live, 2 = live on a draining worker.
  std::map<MediumId, int8_t> medium_status_;
  bool repair_audit_ = false;
  RepairAuditStats repair_audit_stats_;

  /// Fencing epoch stamped on every issued command and checked against
  /// heartbeats/reports. 1 on a fresh master; bumped at takeover.
  /// Atomic so epoch() needs no lock; mutated only under service_mu_.
  std::atomic<uint64_t> epoch_{1};
  /// Monotonic generation-stamp allocator (HDFS generation stamps); every
  /// allocation is journaled so the counter survives checkpoint/replay.
  /// Mutated only under service_mu_ (see NextGenstamp).
  std::atomic<uint64_t> genstamp_{0};
  /// Post-takeover reconstruction state (HDFS-style safe mode). Atomic so
  /// the mutation gate reads it without the service lock.
  std::atomic<bool> safe_mode_{false};
  std::atomic<int64_t> safe_mode_block_target_{0};
  /// Replicas reported during safe mode for blocks this master does not
  /// know; their deletion is deferred until safe mode ends.
  std::set<std::pair<MediumId, BlockId>> deferred_orphans_;
  std::vector<BlockId> lost_blocks_;
};

}  // namespace octo

#endif  // OCTOPUSFS_CLUSTER_MASTER_H_

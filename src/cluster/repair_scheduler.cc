#include "cluster/repair_scheduler.h"

#include <algorithm>

namespace octo {

const char* RepairPriorityName(RepairPriority p) {
  switch (p) {
    case RepairPriority::kLastReplica:
      return "last-replica";
    case RepairPriority::kDecommission:
      return "decommission";
    case RepairPriority::kUnderReplicated:
      return "under-replicated";
    case RepairPriority::kMisTiered:
      return "mis-tiered";
    case RepairPriority::kOverReplicated:
      return "over-replicated";
  }
  return "unknown";
}

void RepairScheduler::ClearQueue() {
  for (auto& bucket : buckets_) bucket.clear();
}

void RepairScheduler::Enqueue(const RepairWork& work) {
  int p = static_cast<int>(work.priority);
  if (p < 0) p = 0;
  if (p >= kNumRepairPriorities) p = kNumRepairPriorities - 1;
  buckets_[p].push_back(work);
}

bool RepairScheduler::PopNext(RepairWork* out) {
  for (auto& bucket : buckets_) {
    if (bucket.empty()) continue;
    *out = bucket.front();
    bucket.pop_front();
    return true;
  }
  return false;
}

int RepairScheduler::queued() const {
  int n = 0;
  for (const auto& bucket : buckets_) n += static_cast<int>(bucket.size());
  return n;
}

std::vector<RepairWork> RepairScheduler::QueuedWork() const {
  std::vector<RepairWork> out;
  for (const auto& bucket : buckets_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

bool RepairScheduler::CanDispatch(WorkerId target_worker,
                                  MediumId target_medium,
                                  int64_t bytes) const {
  auto wit = worker_inflight_.find(target_worker);
  if (wit != worker_inflight_.end() &&
      wit->second >= options_.max_inflight_per_worker) {
    return false;
  }
  auto mit = medium_bytes_.find(target_medium);
  int64_t in_flight = mit == medium_bytes_.end() ? 0 : mit->second;
  // A budget that is still empty always admits one copy, however large:
  // otherwise a block bigger than the budget could never be repaired.
  if (in_flight > 0 && in_flight + bytes > options_.max_bytes_per_medium) {
    return false;
  }
  return true;
}

int64_t RepairScheduler::NoteDispatched(BlockId block, MediumId target_medium,
                                        WorkerId target_worker, int64_t bytes,
                                        RepairPriority priority,
                                        int64_t now_micros) {
  Inflight entry;
  entry.worker = target_worker;
  entry.bytes = bytes;
  entry.priority = priority;
  // Jitter spreads deadlines *downward* from the configured timeout:
  // mass-dispatched copies never expire in lockstep, and every copy has
  // provably expired once the full timeout passes (callers and tests
  // can treat the timeout as a hard upper bound).
  entry.deadline_micros =
      now_micros + static_cast<int64_t>(
                       options_.copy_deadline_micros * Jitter(0.75, 1.0));
  auto key = std::make_pair(block, target_medium);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) ReleaseLocked(key, it->second);
  inflight_[key] = entry;
  int& count = worker_inflight_[target_worker];
  ++count;
  stats_.peak_worker_inflight =
      std::max<int64_t>(stats_.peak_worker_inflight, count);
  medium_bytes_[target_medium] += bytes;
  if (priority == RepairPriority::kMisTiered) {
    ++stats_.migrations;
  } else {
    ++stats_.re_replications;
  }
  auto bit = backoff_.find(block);
  if (bit != backoff_.end() && bit->second.attempts > 0) ++stats_.retries;
  return entry.deadline_micros;
}

void RepairScheduler::ReleaseLocked(const std::pair<BlockId, MediumId>& key,
                                    const Inflight& entry) {
  auto wit = worker_inflight_.find(entry.worker);
  if (wit != worker_inflight_.end() && --wit->second <= 0) {
    worker_inflight_.erase(wit);
  }
  auto mit = medium_bytes_.find(key.second);
  if (mit != medium_bytes_.end()) {
    mit->second -= entry.bytes;
    if (mit->second <= 0) medium_bytes_.erase(mit);
  }
}

void RepairScheduler::NoteCompleted(BlockId block, MediumId target_medium) {
  auto key = std::make_pair(block, target_medium);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  ReleaseLocked(key, it->second);
  inflight_.erase(it);
  ++stats_.copies_completed;
  // Success resets the failure history: the block is healthy again.
  backoff_.erase(block);
}

void RepairScheduler::NoteAborted(BlockId block, MediumId target_medium,
                                  RepairAbort reason, int64_t now_micros) {
  auto key = std::make_pair(block, target_medium);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  ReleaseLocked(key, it->second);
  inflight_.erase(it);
  if (reason == RepairAbort::kTargetLost) {
    // The target is gone; the copy could never have landed and the
    // failure says nothing about the block. Re-place elsewhere at once.
    ++stats_.target_losses;
    return;
  }
  Backoff& b = backoff_[block];
  ++b.attempts;
  if (b.attempts >= 2) {
    int shift = std::min(b.attempts - 2, 20);
    int64_t delay = options_.backoff_base_micros << shift;
    delay = std::min(delay, options_.backoff_max_micros);
    delay = static_cast<int64_t>(delay * Jitter(0.5, 1.5));
    b.not_before_micros = now_micros + delay;
  } else {
    // First failure: retry on the next monitor round (at escalated
    // priority, away from the cooled-down target). Backoff spacing
    // starts once the block has failed twice.
    b.not_before_micros = now_micros;
  }
  if (b.attempts == options_.retry_budget + 1) ++stats_.retries_exhausted;
  if (reason == RepairAbort::kTimeout) {
    ++stats_.expirations;
    // The expired copy may still land: keep the target out of placement
    // for a grace window so the same (block, target) pair cannot be
    // double-queued (the flat-timeout bug this scheduler replaces).
    cooldowns_[key] = now_micros + options_.target_cooldown_micros;
  } else {
    ++stats_.failed_reported;
  }
}

std::vector<std::pair<BlockId, MediumId>> RepairScheduler::ExpiredCopies(
    int64_t now_micros) const {
  std::vector<std::pair<BlockId, MediumId>> expired;
  // >= rather than >: a driver that slept exactly until the deadline
  // (virtual clocks land on it after double<->micros round-trips) must
  // observe the expiry it slept for.
  for (const auto& [key, entry] : inflight_) {
    if (now_micros >= entry.deadline_micros) expired.push_back(key);
  }
  return expired;
}

bool RepairScheduler::InBackoff(BlockId block, int64_t now_micros) const {
  auto it = backoff_.find(block);
  return it != backoff_.end() && now_micros < it->second.not_before_micros;
}

int RepairScheduler::AttemptsFor(BlockId block) const {
  auto it = backoff_.find(block);
  return it == backoff_.end() ? 0 : it->second.attempts;
}

RepairPriority RepairScheduler::EscalatedPriority(BlockId block,
                                                  RepairPriority base) const {
  if (AttemptsFor(block) == 0) return base;
  int p = static_cast<int>(base);
  return p > 0 ? static_cast<RepairPriority>(p - 1) : base;
}

void RepairScheduler::ClearBackoff(BlockId block) { backoff_.erase(block); }

int64_t RepairScheduler::NextRetryMicros(int64_t now_micros) const {
  // Only instants strictly in the future are wake-up points: a backoff
  // window already open (or an already-expired deadline) was actionable
  // on the monitor round that just ran, so if work remained it was
  // dispatched then — what is left of such entries is stale history.
  int64_t earliest = -1;
  for (const auto& [block, b] : backoff_) {
    (void)block;
    if (b.not_before_micros <= now_micros) continue;
    if (earliest < 0 || b.not_before_micros < earliest) {
      earliest = b.not_before_micros;
    }
  }
  // An in-flight copy that never commits only makes progress once its
  // deadline expires; a driver sleeping until "the repair plane can act
  // again" must wake for that too.
  for (const auto& [key, entry] : inflight_) {
    (void)key;
    if (entry.deadline_micros <= now_micros) continue;
    if (earliest < 0 || entry.deadline_micros < earliest) {
      earliest = entry.deadline_micros;
    }
  }
  return earliest;
}

bool RepairScheduler::TargetInCooldown(BlockId block, MediumId target_medium,
                                       int64_t now_micros) const {
  auto it = cooldowns_.find(std::make_pair(block, target_medium));
  return it != cooldowns_.end() && now_micros < it->second;
}

std::vector<MediumId> RepairScheduler::CooldownTargets(
    BlockId block, int64_t now_micros) const {
  std::vector<MediumId> targets;
  auto it = cooldowns_.lower_bound(std::make_pair(block, kInvalidMedium));
  for (; it != cooldowns_.end() && it->first.first == block; ++it) {
    if (now_micros < it->second) targets.push_back(it->first.second);
  }
  return targets;
}

int RepairScheduler::WorkerInflight(WorkerId worker) const {
  auto it = worker_inflight_.find(worker);
  return it == worker_inflight_.end() ? 0 : it->second;
}

int64_t RepairScheduler::MediumBytesInflight(MediumId medium) const {
  auto it = medium_bytes_.find(medium);
  return it == medium_bytes_.end() ? 0 : it->second;
}

void RepairScheduler::Reset() {
  ClearQueue();
  inflight_.clear();
  worker_inflight_.clear();
  medium_bytes_.clear();
  backoff_.clear();
  cooldowns_.clear();
  stats_ = RepairStats{};
}

double RepairScheduler::Jitter(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(rng_);
}

}  // namespace octo

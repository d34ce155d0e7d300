#include "cluster/block_manager.h"

#include <algorithm>
#include <mutex>

namespace octo {

Status BlockManager::AddBlock(BlockRecord record) {
  BlockId id = record.id;
  Stripe& stripe = StripeFor(id);
  {
    std::unique_lock<std::shared_mutex> lock(stripe.mu);
    if (stripe.blocks.count(id) > 0) {
      return Status::AlreadyExists("block " + std::to_string(id));
    }
    for (MediumId medium : record.locations) IndexAdd(id, medium);
    stripe.blocks.emplace(id, std::move(record));
  }
  // Keep the allocator past replayed/loaded ids.
  BlockId floor = id + 1;
  BlockId cur = next_block_id_.load(std::memory_order_relaxed);
  while (cur < floor && !next_block_id_.compare_exchange_weak(
                            cur, floor, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status BlockManager::RemoveBlock(BlockId id) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  BlockRecord record = std::move(it->second);
  stripe.blocks.erase(it);
  while (!record.locations.empty()) {
    MediumId medium = record.locations.back();
    record.locations.pop_back();
    IndexRemove(record, medium);
  }
  return Status::OK();
}

Status BlockManager::AddReplica(BlockId id, MediumId medium) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  auto& locs = it->second.locations;
  if (std::find(locs.begin(), locs.end(), medium) != locs.end()) {
    return Status::AlreadyExists("block " + std::to_string(id) +
                                 " already has a replica on medium " +
                                 std::to_string(medium));
  }
  locs.push_back(medium);
  IndexAdd(id, medium);
  return Status::OK();
}

Status BlockManager::RemoveReplica(BlockId id, MediumId medium) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  auto& locs = it->second.locations;
  auto pos = std::find(locs.begin(), locs.end(), medium);
  if (pos == locs.end()) {
    return Status::NotFound("block " + std::to_string(id) +
                            " has no replica on medium " +
                            std::to_string(medium));
  }
  locs.erase(pos);
  IndexRemove(it->second, medium);
  return Status::OK();
}

Status BlockManager::SetExpected(BlockId id, const ReplicationVector& expected,
                                 int64_t* length_out) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  it->second.expected = expected;
  if (length_out != nullptr) *length_out = it->second.length;
  return Status::OK();
}

const BlockRecord* BlockManager::Find(BlockId id) const {
  const Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  return it == stripe.blocks.end() ? nullptr : &it->second;
}

bool BlockManager::Contains(BlockId id) const {
  const Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  return stripe.blocks.count(id) > 0;
}

bool BlockManager::Snapshot(BlockId id, BlockRecord* out) const {
  const Stripe& stripe = StripeFor(id);
  std::shared_lock<std::shared_mutex> lock(stripe.mu);
  auto it = stripe.blocks.find(id);
  if (it == stripe.blocks.end()) return false;
  *out = it->second;
  return true;
}

void BlockManager::IndexAdd(BlockId id, MediumId medium) {
  std::lock_guard<std::mutex> lock(index_mu_);
  by_medium_[medium].insert(id);
}

void BlockManager::IndexRemove(const BlockRecord& record, MediumId medium) {
  // A location list may name a medium twice (a caller-supplied replica
  // list); the index entry goes with the last occurrence.
  if (std::find(record.locations.begin(), record.locations.end(), medium) !=
      record.locations.end()) {
    return;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = by_medium_.find(medium);
  if (it == by_medium_.end()) return;
  it->second.erase(record.id);
  if (it->second.empty()) by_medium_.erase(it);
}

std::vector<BlockId> BlockManager::BlocksOnMedium(MediumId medium) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = by_medium_.find(medium);
  if (it == by_medium_.end()) return {};
  return std::vector<BlockId>(it->second.begin(), it->second.end());
}

int64_t BlockManager::NumBlocksOnMedium(MediumId medium) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = by_medium_.find(medium);
  return it == by_medium_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

void BlockManager::ForEach(
    const std::function<void(const BlockRecord&)>& fn) const {
  std::vector<BlockId> ids;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    for (const auto& [id, record] : stripe.blocks) ids.push_back(id);
  }
  // Ascending-id order, matching the pre-striping single map: the
  // replication monitor's decision (and rng) order stays deterministic.
  std::sort(ids.begin(), ids.end());
  BlockRecord copy;
  for (BlockId id : ids) {
    if (Snapshot(id, &copy)) fn(copy);
  }
}

int64_t BlockManager::NumBlocks() const {
  int64_t n = 0;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock<std::shared_mutex> lock(stripe.mu);
    n += static_cast<int64_t>(stripe.blocks.size());
  }
  return n;
}

void BlockManager::Reset() {
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::shared_mutex> lock(stripe.mu);
    stripe.blocks.clear();
  }
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    by_medium_.clear();
  }
  next_block_id_.store(1, std::memory_order_relaxed);
}

}  // namespace octo

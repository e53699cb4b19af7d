#include "ops/repartition.h"

#include <algorithm>

namespace pjoin {

namespace {

// Sketch capacity (distinct keys tracked). Space-saving guarantees any key
// with frequency > total/capacity is present.
constexpr size_t kHotKeySketchCapacity = 64;
// Migration additionally requires imbalance >= this (typically above the
// policy's imbalance_trigger): moving a key relocates ALL of its future
// work onto one other shard, which only pays off under sustained, strong
// imbalance — under mild skew it is pure churn. Replication has no such
// cliff (it spreads work instead of moving it) and acts at the base
// trigger.
constexpr double kMigrateTrigger = 1.5;
// Cap on concurrently replicated keys.
constexpr int kMaxHotKeys = 4;

}  // namespace

HotKeyDetector::HotKeyDetector(size_t capacity, int num_shards)
    : capacity_(capacity == 0 ? 1 : capacity),
      window_load_(static_cast<size_t>(num_shards), 0) {
  slots_.reserve(capacity_);
}

void HotKeyDetector::Observe(const Value& key, uint64_t key_hash, int side) {
  ++observed_;
  const auto it = index_.find(key_hash);
  if (it != index_.end()) {
    Entry& e = slots_[it->second];
    ++e.count;
    ++e.side_count[side];
    return;
  }
  if (slots_.size() < capacity_) {
    index_[key_hash] = slots_.size();
    Entry e;
    e.key = key;
    e.key_hash = key_hash;
    e.count = 1;
    e.side_count[side] = 1;
    slots_.push_back(std::move(e));
    return;
  }
  // Space-saving eviction: the new key takes over the minimum-count slot,
  // inheriting its count as both estimate floor and error bound. The argmin
  // scan is bounded by the (small) capacity and runs only on sampled misses.
  size_t victim = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].count < slots_[victim].count) victim = i;
  }
  Entry& e = slots_[victim];
  index_.erase(e.key_hash);
  index_[key_hash] = victim;
  e.error = e.count;
  ++e.count;
  e.key = key;
  e.key_hash = key_hash;
  e.side_count[0] = 0;
  e.side_count[1] = 0;
  e.side_count[side] = 1;
}

int64_t HotKeyDetector::window_tuples() const {
  int64_t total = 0;
  for (const int64_t load : window_load_) total += load;
  return total;
}

double HotKeyDetector::WindowImbalance() const {
  const int64_t total = window_tuples();
  if (total == 0) return 0.0;
  int64_t max_load = 0;
  for (const int64_t load : window_load_) max_load = std::max(max_load, load);
  const double mean =
      static_cast<double>(total) / static_cast<double>(window_load_.size());
  return static_cast<double>(max_load) / mean;
}

void HotKeyDetector::ResetWindow() {
  std::fill(window_load_.begin(), window_load_.end(), 0);
  index_.clear();
  slots_.clear();
  observed_ = 0;
}

std::vector<HotKeyDetector::Entry> HotKeyDetector::TopK() const {
  std::vector<Entry> out = slots_;
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.count > b.count; });
  return out;
}

RepartitionController::RepartitionController(const RepartitionPolicy& policy,
                                             ShardMap* map)
    : policy_(policy),
      map_(map),
      detector_(kHotKeySketchCapacity, map->num_shards()) {
  PJOIN_DCHECK(policy_.sample_every > 0);
  PJOIN_DCHECK(policy_.check_interval > 0);
}

RepartitionDecision RepartitionController::Decide() {
  RepartitionDecision none;
  const int64_t window = since_check_;
  since_check_ = 0;
  since_forced_ += window;
  const double imbalance = detector_.WindowImbalance();
  last_imbalance_ = imbalance;
  // Capture the window's state, then reset: ResetWindow clears the loads
  // AND the sketch (windowed top-k), and everything below judges this
  // window, not the run's history.
  const std::vector<int64_t> loads = detector_.window_load();
  const std::vector<HotKeyDetector::Entry> top = detector_.TopK();
  const int64_t window_observed = detector_.observed();
  const int num_shards = map_->num_shards();
  detector_.ResetWindow();
  if (num_shards < 2) return none;

  const bool forced = policy_.force_migration_interval > 0 &&
                      since_forced_ >= policy_.force_migration_interval;
  const bool warm = detector_.total_routed() >= policy_.min_tuples;
  const int hottest = static_cast<int>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
  const int coldest = static_cast<int>(
      std::min_element(loads.begin(), loads.end()) - loads.begin());
  // Migration persistence: the same shard must be hottest in consecutive
  // imbalanced windows. A one-window spike is sampling noise or a reign
  // boundary — moving state on it is churn. A balanced window resets the
  // streak.
  const int prev_hottest = last_hottest_;
  last_hottest_ = imbalance >= policy_.imbalance_trigger ? hottest : -1;

  if (!forced && (!warm || imbalance < policy_.imbalance_trigger)) {
    return none;
  }

  // Replication first: a single key dominating the stream cannot be fixed
  // by moving it (it saturates whichever shard owns it); spreading its
  // probe work across all shards can.
  if (!forced && window_observed > 0 &&
      map_->replicated_keys() < kMaxHotKeys) {
    for (const HotKeyDetector::Entry& e : top) {
      const double share = static_cast<double>(e.count) /
                           static_cast<double>(window_observed);
      if (share < policy_.hot_fraction) break;  // sorted: none hotter below
      if (map_->IsReplicated(e.key_hash)) continue;
      if (rejected_.count(e.key_hash) != 0) continue;
      RepartitionDecision d;
      d.kind = RepartitionDecision::Kind::kReplicate;
      d.key = e.key;
      d.key_hash = e.key_hash;
      d.from = map_->OwnerOf(e.key_hash);
      d.spray_side = e.side_count[1] > e.side_count[0] ? 1 : 0;
      return d;
    }
  }

  // Migration: move the hottest key owned by the most loaded shard to the
  // least loaded one. Forced mode (tests) takes the sketch's top key
  // regardless of thresholds.
  if (!forced && (imbalance < kMigrateTrigger || hottest != prev_hottest)) {
    return none;
  }
  for (const HotKeyDetector::Entry& e : top) {
    if (map_->IsReplicated(e.key_hash)) continue;
    if (rejected_.count(e.key_hash) != 0) continue;
    const int owner = map_->OwnerOf(e.key_hash);
    if (!forced && owner != hottest) continue;
    int to = forced ? (owner + 1) % num_shards : coldest;
    if (to == owner) continue;
    since_forced_ = 0;
    RepartitionDecision d;
    d.kind = RepartitionDecision::Kind::kMigrate;
    d.key = e.key;
    d.key_hash = e.key_hash;
    d.from = owner;
    d.to = to;
    return d;
  }
  return none;
}

}  // namespace pjoin

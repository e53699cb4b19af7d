#include "ops/repartition.h"

#include <algorithm>

namespace pjoin {

namespace {

// Sketch capacity (distinct keys tracked). Space-saving guarantees any key
// with frequency > total/capacity is present.
constexpr size_t kHotKeySketchCapacity = 64;
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
  since_check_ = 0;
  const double imbalance = detector_.WindowImbalance();
  last_imbalance_ = imbalance;
  // Capture the window's state, then reset: ResetWindow clears the loads
  // AND the sketch (windowed top-k), and everything below judges this
  // window, not the run's history.
  const std::vector<HotKeyDetector::Entry> top = detector_.TopK();
  const int64_t window_observed = detector_.observed();
  detector_.ResetWindow();
  if (map_->num_shards() < 2 ||
      detector_.total_routed() < policy_.min_tuples ||
      imbalance < policy_.imbalance_trigger || window_observed == 0 ||
      map_->replicated_keys() >= kMaxHotKeys) {
    return {};
  }
  // A single key dominating the stream saturates whichever shard holds it;
  // spreading its probe work across all shards is what relieves it.
  for (const HotKeyDetector::Entry& e : top) {
    const double share =
        static_cast<double>(e.count) / static_cast<double>(window_observed);
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
  return {};
}

}  // namespace pjoin

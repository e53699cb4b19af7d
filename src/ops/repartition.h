// Runtime repartitioning for the parallel join pipeline (PanJoin direction;
// docs/PERFORMANCE.md "Skew"): the router-side machinery that turns static
// key-hash sharding into an adaptive placement.
//
// Three pieces, all owned and driven by the single router/merger thread —
// none of this is shared state, so none of it takes a lock:
//
//  - ShardMap: the one source of truth for key → shard placement. Every key
//    is owned by its mixed key-hash modulo; a hot key additionally gets a
//    replication entry. Both tuple routing AND punctuation routing consult
//    this map, so the two can never disagree about where a key's state
//    lives (the bug class this replaces: two copies of the owner
//    computation drifting apart).
//
//  - HotKeyDetector: a space-saving top-k sketch (Metwally et al.) over the
//    routed tuples' join keys, plus per-shard load counters for the current
//    observation window. Sketch updates are sampled (policy.sample_every)
//    so the router's per-tuple routing cost stays flat on unskewed streams.
//
//  - RepartitionController: the decision policy. Every check_interval
//    routed tuples it compares the window's shard loads; when the imbalance
//    ratio crosses the trigger it *replicates* the dominant key (frequency
//    share >= hot_fraction: build side broadcast to all shards, probe side
//    sprayed). Replication is the only remedy: a key that saturates its
//    owner would saturate any single shard it moved to. The pipeline
//    executes the decision via an in-band handoff through the existing SPSC
//    rings (ops/parallel_pipeline.h), finished before it routes the next
//    element, and reports a refusal back. Decisions therefore depend on
//    the input and on where the spray sent earlier tuples; with
//    imbalance_trigger 1.0 and memory-resident state, on the input alone.
//
// Replication protocol (why it is exactly-once): for a hot key k, the
// sprayed side's tuples each go to exactly one shard, where they probe the
// build side's full local replica (every prior build tuple of k is there)
// and insert locally; the build side's tuples go to every shard, where each
// probes the local spray-state (every sprayed tuple of k lives at exactly
// one shard) and inserts into the local replica. Every (probe, build) pair
// therefore meets at exactly one shard.

#ifndef PJOIN_OPS_REPARTITION_H_
#define PJOIN_OPS_REPARTITION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "tuple/value.h"

namespace pjoin {

/// Knobs of the runtime repartitioning layer. Disabled by default: a static
/// pipeline pays nothing (no sketch, no per-tuple checks).
struct RepartitionPolicy {
  bool enabled = false;
  /// Update the sketch once per this many routed tuples (load counters
  /// update on every tuple). Sampling keeps the unskewed routing hot path
  /// flat; frequency *fractions* are unbiased under uniform sampling.
  int64_t sample_every = 4;
  /// Routed tuples between repartition decisions (one observation window).
  int64_t check_interval = 4096;
  /// No decisions before this many routed tuples (sketch warm-up).
  int64_t min_tuples = 8192;
  /// Act only when max_window_load / mean_window_load >= this.
  double imbalance_trigger = 1.25;
  /// Replicate a key when its sampled frequency share within the current
  /// observation window >= this fraction.
  double hot_fraction = 0.10;
};

/// The single source of truth for key → shard placement. Router/merger
/// thread only.
class ShardMap {
 public:
  explicit ShardMap(int num_shards = 1) : num_shards_(num_shards) {}

  int num_shards() const { return num_shards_; }
  void Reset(int num_shards) {
    PJOIN_DCHECK(num_shards > 0);
    num_shards_ = num_shards;
    replicated_.clear();
  }

  /// The shard owning `key_hash`: the mixed hash modulo the shard count.
  /// (The hash is mixed before the modulo because its low bits already
  /// select the partition inside a shard's HashState.) A replicated key
  /// keeps its owner, which holds the sprayed side's pre-handoff state.
  int OwnerOf(uint64_t key_hash) const {
    const uint64_t mixed = (key_hash * 0x9e3779b97f4a7c15ull) >> 32;
    return static_cast<int>(mixed % static_cast<uint64_t>(num_shards_));
  }

  // ---- Hot-key replication ----

  bool IsReplicated(uint64_t key_hash) const {
    return !replicated_.empty() &&
           replicated_.find(key_hash) != replicated_.end();
  }
  /// Marks `key_hash` replicated: tuples of `spray_side` spray round-robin,
  /// the other side broadcasts, constant-key punctuations broadcast.
  void MarkReplicated(uint64_t key_hash, int spray_side) {
    replicated_[key_hash] = Replicated{spray_side, 0};
  }
  /// The sprayed side of a replicated key.
  int SpraySideOf(uint64_t key_hash) const {
    const auto it = replicated_.find(key_hash);
    PJOIN_DCHECK(it != replicated_.end());
    return it->second.spray_side;
  }
  /// Next round-robin spray target for a replicated key.
  int NextSprayShard(uint64_t key_hash) {
    auto it = replicated_.find(key_hash);
    PJOIN_DCHECK(it != replicated_.end());
    const int shard = it->second.cursor;
    it->second.cursor = (shard + 1) % num_shards_;
    return shard;
  }

  int64_t replicated_keys() const {
    return static_cast<int64_t>(replicated_.size());
  }

 private:
  struct Replicated {
    int spray_side = 0;
    int cursor = 0;
  };

  int num_shards_;
  std::unordered_map<uint64_t, Replicated> replicated_;
};

/// Space-saving top-k over the routed join keys, plus windowed per-shard
/// load counters. Router thread only.
class HotKeyDetector {
 public:
  struct Entry {
    Value key;
    uint64_t key_hash = 0;
    /// Estimated total observations (true count <= count, and
    /// count - error <= true count — the space-saving bounds).
    int64_t count = 0;
    /// Count inherited from the evicted slot (the estimate's error bound).
    int64_t error = 0;
    /// Per input side, for the replicate decision's spray-side choice.
    int64_t side_count[2] = {0, 0};
  };

  HotKeyDetector(size_t capacity, int num_shards);

  /// One sampled sketch observation.
  void Observe(const Value& key, uint64_t key_hash, int side);
  /// One routed tuple (every tuple; windowed load accounting).
  void ObserveRouted(int shard) {
    ++total_routed_;
    ++window_load_[static_cast<size_t>(shard)];
  }

  /// Sampled observations in the current window. The sketch is windowed:
  /// a key's share is judged against the window it is hot in, so a key
  /// whose reign starts mid-run is not diluted by history (skewed streams
  /// drift — "newer keys are hotter").
  int64_t observed() const { return observed_; }
  /// Routed tuples since construction (never reset; the warm-up gate).
  int64_t total_routed() const { return total_routed_; }
  int64_t window_tuples() const;
  const std::vector<int64_t>& window_load() const { return window_load_; }
  /// max/mean of the window loads (1.0 = perfectly balanced; 0 when the
  /// window is empty).
  double WindowImbalance() const;
  /// Clears the load counters AND the sketch — every window judges keys
  /// fresh. total_routed() survives.
  void ResetWindow();

  /// Sketch entries, highest estimated count first.
  std::vector<Entry> TopK() const;

 private:
  size_t capacity_;
  std::unordered_map<uint64_t, size_t> index_;  // key_hash -> slot
  std::vector<Entry> slots_;
  int64_t observed_ = 0;
  int64_t total_routed_ = 0;
  std::vector<int64_t> window_load_;
};

/// One action for the pipeline to execute via a handoff.
struct RepartitionDecision {
  enum class Kind { kNone, kReplicate };
  Kind kind = Kind::kNone;
  Value key;
  uint64_t key_hash = 0;
  /// Current owner (handoff source).
  int from = 0;
  /// The side sprayed across the shards (the heavier side); the other side
  /// broadcasts.
  int spray_side = 0;
};

/// The decision policy: observes routing, emits at most one decision per
/// observation window. Router thread only.
class RepartitionController {
 public:
  RepartitionController(const RepartitionPolicy& policy, ShardMap* map);

  /// Called by the router for every routed tuple (cheap: two counter
  /// bumps; the sketch updates once per policy.sample_every tuples).
  void ObserveTuple(const Value& key, uint64_t key_hash, int side,
                    int shard) {
    detector_.ObserveRouted(shard);
    if (++since_sample_ >= policy_.sample_every) {
      since_sample_ = 0;
      detector_.Observe(key, key_hash, side);
    }
    ++since_check_;
  }

  /// True once a window has elapsed; the pipeline then calls Decide.
  bool ShouldCheck() const { return since_check_ >= policy_.check_interval; }

  /// Closes the window and returns the action to take (possibly kNone).
  RepartitionDecision Decide();

  /// The pipeline reports a refused extract; the key is blocklisted so the
  /// controller stops retrying it.
  void OnHandoffRejected(uint64_t key_hash) { rejected_.insert(key_hash); }

  const HotKeyDetector& detector() const { return detector_; }
  /// max/mean shard load of the last closed window (for the imbalance
  /// gauge; 1.0 = balanced).
  double last_imbalance() const { return last_imbalance_; }

 private:
  RepartitionPolicy policy_;
  ShardMap* map_;
  HotKeyDetector detector_;
  int64_t since_sample_ = 0;
  int64_t since_check_ = 0;
  double last_imbalance_ = 0.0;
  std::unordered_set<uint64_t> rejected_;
};

}  // namespace pjoin

#endif  // PJOIN_OPS_REPARTITION_H_

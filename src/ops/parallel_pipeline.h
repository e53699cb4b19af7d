// ParallelJoinPipeline: partition-parallel execution of a symmetric stream
// join (PJoin / XJoin / SHJ) over a lock-free dataflow spine.
//
// Topology (docs/PERFORMANCE.md):
//
//   left  ─┐            ┌─(ring)─> shard 0 ─(ring)─┐
//          ├─> router ──┼─(ring)─> shard 1 ─(ring)─┼─> merger
//   right ─┘ (caller)   └─(ring)─> shard N-1 ──────┘  (caller)
//
// A run starts one thread per shard; the router and the merger run on the
// caller's thread. Every edge between threads is a bounded SpscRing
// (common/spsc_ring.h) of batches; no mutex is taken anywhere on the data
// path. The router reads the caller's two input vectors directly, merging
// them in global arrival order (stream/arrival_merge.h), hashes each
// tuple's join key once, and stages it — pointer, side, key hash — in a
// columnar RoutedBatch for the shard the mixed hash selects (zero copy:
// shards borrow `const StreamElement*`s that outlive the run). Shards feed
// whole batches to JoinOperator::ProcessBatch, which reuses the router's
// key hashes for partition selection, index probe and insert, and
// amortizes the per-tuple counter bookkeeping across each batch.
//
// Key placement is static: a key's owner is its mixed hash modulo the
// shard count (OwnerOf) for the whole run, so the spine carries only data.
// Because an equi-join only ever pairs tuples of equal keys, and all
// tuples of one key go to the same shard, every shard runs the complete
// single-threaded join algorithm over a disjoint key subset: memory
// portion, disk portion, purge buffer, and purge/disk-join work all stay
// shard-local.
//
// Punctuations route like tuples when they can: a constant-key
// punctuation covers tuples of exactly one key, so only that key's owning
// shard receives it — its purge, punctuation-set and propagation work
// scales down with the shard count instead of multiplying (a broadcast
// would make every shard scan its state for a key that cannot be there).
// Punctuations with non-constant patterns (ranges, wildcards) and
// end-of-stream markers are broadcast to every shard; every shard's purge
// and contract-validation decisions match the single-threaded run
// restricted to the shard's keys, because a shard holds a tuple iff it
// owns the tuple's key, and every punctuation reaches the shards owning
// the keys it covers. Per-shard FIFO delivery preserves the relative
// order of a punctuation and the tuples it covers. Stalls are detected per
// shard (a dry shard runs its disk join / reactive stage, exactly as the
// single-threaded consumer would, then parks until data or close).
//
// Output runs through per-shard result rings of OutBatches — each carries
// the shard's staged results followed by its punctuation releases — merged
// on the caller's thread, which also keeps the release board (plain state:
// the merger is single-threaded, so no lock). A result leaves its shard as
// a flat row of values, not as a Tuple: the shard copies the matched
// pair's values into one vector per OutBatch, and the merger builds each
// result's Tuple just before the result callback. Every per-result block
// is therefore allocated and freed on the merger's thread; the only
// shard-allocated blocks the merger frees are each batch's vectors (and
// the heap buffers of long string values). The router records each
// punctuation round's target shards on the board before staging it; the
// board credits each shard's release to that shard's oldest open round of
// the same string and emits a round once all its shards have released it
// (ops/release_board.h). Every shard records a release only after the
// results it covers, so a released punctuation never overtakes a result it
// covers (the §3.3 invariant).
//
// Blocking policy (deadlock-freedom on bounded rings): shards may park
// (their consumer always drains eventually); the router/merger thread
// never parks on a shard ring — when one is full it drains the output
// rings and yields, so the merge edge can always free the dispatch edge.
// It parks only on the output-activity eventcount, between output drains
// that came back empty.
//
// Correctness oracle: for any input, the emitted result multiset equals the
// single-threaded reference (tests/parallel_pipeline_test.cc asserts this
// per seed; bench/par_scaling.cc re-checks it for every benchmarked
// configuration).

#ifndef PJOIN_OPS_PARALLEL_PIPELINE_H_
#define PJOIN_OPS_PARALLEL_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/spsc_ring.h"
#include "join/join_base.h"
#include "obs/metrics_registry.h"
#include "ops/release_board.h"

namespace pjoin {

/// Ignored: key placement is static. Kept because the repository benchmark
/// still assigns both fields.
struct RepartitionPolicy {
  bool enabled = false;
  double imbalance_trigger = 1.25;
};

struct ParallelPipelineOptions {
  /// Number of shard workers; 1 degenerates to router + one worker.
  int num_shards = 4;
  /// Ignored: the router reads the input vectors directly. Kept because the
  /// repository benchmark still assigns it.
  size_t input_buffer_capacity = 8192;
  /// Capacity of each shard's routed ring in elements (rounded to whole
  /// batches); the router backpressures — drains outputs and yields,
  /// never parks — on a full ring. 0 = a large default.
  size_t shard_queue_capacity = 8192;
  /// Elements per RoutedBatch (router dispatch granularity).
  size_t batch_size = 256;
  /// Ignored, as input_buffer_capacity is: every key stays with its static
  /// owner (ParallelJoinPipeline::OwnerOf).
  RepartitionPolicy repartition;
};

/// Final per-shard occupancy of one run, read after the workers have
/// joined. Every field but `stalls` comes from the shard's join.
struct ShardStats {
  int shard = 0;
  /// Tuples the shard's join took in (its key subset): "tuples_in".
  int64_t tuples = 0;
  int64_t results = 0;
  int64_t puncts_emitted = 0;
  /// Stalls the shard worker reported to its join (OnStreamsStalled).
  int64_t stalls = 0;
  /// Final retained state (memory + disk + purge buffer) of the shard.
  int64_t state_tuples = 0;
};

class ParallelJoinPipeline {
 public:
  using JoinFactory = std::function<std::unique_ptr<JoinOperator>(int shard)>;
  using ResultCallback = std::function<void(const Tuple&)>;
  using PunctCallback = std::function<void(const Punctuation&)>;

  /// `factory` builds one identically-configured join per shard.
  ParallelJoinPipeline(JoinFactory factory,
                       ParallelPipelineOptions options = {});
  ~ParallelJoinPipeline();
  PJOIN_DISALLOW_COPY_AND_MOVE(ParallelJoinPipeline);

  /// Called on the Run() caller's thread for every merged result / released
  /// punctuation. Set before Run.
  void set_result_callback(ResultCallback cb) { on_result_ = std::move(cb); }
  void set_punct_callback(PunctCallback cb) { on_punct_ = std::move(cb); }

  /// Routes both inputs to the shard workers until both are exhausted and
  /// all shards have finished. Single-shot. The input vectors are borrowed
  /// for the whole run (zero-copy transport) — they must outlive the call,
  /// which the reference parameters guarantee. Each input must end with its
  /// only end-of-stream marker; otherwise Run returns InvalidArgument
  /// without starting a thread.
  Status Run(const std::vector<StreamElement>& left,
             const std::vector<StreamElement>& right);

  // ---- Introspection (valid after Run) ----
  int num_shards() const { return static_cast<int>(joins_.size()); }
  JoinOperator* shard_join(int shard) { return joins_[shard].get(); }
  const std::vector<ShardStats>& shard_stats() const { return shard_stats_; }
  int64_t results_emitted() const { return results_emitted_; }
  int64_t puncts_emitted() const { return puncts_emitted_; }
  int64_t stalls_reported() const { return stalls_reported_; }
  /// Times the router hit a full shard ring and fell back to
  /// drain-outputs-and-yield (also counter pjoin_router_backpressure_waits).
  int64_t router_backpressure_waits() const {
    return router_backpressure_waits_;
  }
  /// Times a shard worker parked after spinning on an empty routed ring
  /// (also counter pjoin_shard_spin_parks).
  int64_t shard_spin_parks() const { return shard_spin_parks_; }

  // Always 0: key placement is static. Kept because the repository
  // benchmark still reports them (repart.*).
  int64_t migrations_completed() const { return 0; }
  int64_t migration_rollbacks() const { return 0; }
  int64_t handoffs_started() const { return 0; }
  int64_t hot_keys_active() const { return 0; }

  /// The shard owning `key_hash` at `num_shards` shards: the mixed hash
  /// modulo the shard count. (The hash is mixed before the modulo because
  /// its low bits already select the partition inside a shard's
  /// HashState.) Tuple routing and punctuation routing both call this, so
  /// they cannot disagree about a key's owner.
  static int OwnerOf(uint64_t key_hash, int num_shards) {
    const uint64_t mixed = (key_hash * 0x9e3779b97f4a7c15ull) >> 32;
    return static_cast<int>(mixed % static_cast<uint64_t>(num_shards));
  }

 private:
  /// Columnar routed batch — the unit of the router→shard rings. Parallel
  /// flat arrays (borrowed element pointers, input sides, router-computed
  /// key hashes) keep the shard's probe loop walking plain memory, and the
  /// hashes are computed exactly once per tuple for the whole pipeline.
  struct RoutedBatch {
    std::vector<const StreamElement*> elements;
    std::vector<int8_t> sides;
    /// Join-key hash per element; 0 (unused) for punctuations and EOS.
    std::vector<uint64_t> key_hashes;
    /// Wall-clock (TraceNowMicros) router dispatch time of the batch; the
    /// shard hands it to the join so emits can observe end-to-end latency,
    /// and publishes it while it works on the batch, so the stall diagnosis
    /// (obs/health.h) can read how far the shard trails the router.
    /// Coarse (refreshed every few router iterations).
    TimeMicros ingress_us = 0;
  };

  /// The unit of the shard→merger rings: staged results followed by the
  /// punctuation releases recorded after them. The merger emits the
  /// results first, so a release never overtakes a result it covers.
  struct OutBatch {
    /// Results as flat rows of `row_width_` values each: the matched left
    /// tuple's values followed by the right tuple's.
    std::vector<Value> rows;
    std::vector<Punctuation> releases;
  };

  // Per-shard context: the two rings, live gauges, staging buffers.
  struct Shard;

  void RouterLoop(const std::vector<StreamElement>& left,
                  const std::vector<StreamElement>& right);
  void ShardLoop(Shard* shard);
  /// Dispatches one element (tuple / punctuation / EOS) to its shards.
  void RouteElement(int side, const StreamElement* e);
  /// Appends element `e` (borrowed) to `shard`'s pending batch, flushing
  /// when full.
  void Stage(int shard, int8_t side, const StreamElement* e,
             uint64_t key_hash, TimeMicros ingress_us);
  void FlushStaged(int shard);
  /// Pushes `batch` into `shard`'s routed ring. The router never parks:
  /// on a full ring it drains the output rings and retries.
  void PushRouted(int shard, RoutedBatch batch);
  /// Drains all shard output rings into the user callbacks and the release
  /// board (router/caller thread only). Returns the number of OutBatches
  /// merged, so callers waiting on output can park when a sweep comes back
  /// empty.
  size_t DrainOutputs();
  /// Builds and emits `shard`'s result rows, then credits its releases on
  /// the board.
  void MergeOutBatch(int shard, OutBatch out);
  /// Shard-side: pushes staged results/releases into the shard's output
  /// ring when due (`force`, a pending release, or kResultFlush reached).
  void FlushShardOut(Shard* shard, bool force);

  ParallelPipelineOptions options_;
  std::vector<std::unique_ptr<JoinOperator>> joins_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RoutedBatch> staged_;  // router-local pending batches
  /// Schema of the merged result tuples and its field count, the width of
  /// an OutBatch row.
  SchemaPtr result_schema_;
  size_t row_width_ = 0;
  ResultCallback on_result_;
  PunctCallback on_punct_;

  /// Per-side join-key positions of the running RouterLoop.
  size_t key_index_[2] = {0, 0};
  /// Coarse dispatch timestamp (see RouterLoop's refresh cadence).
  TimeMicros route_now_us_ = 0;

  /// Punctuation release board — router/caller thread only (the merger is
  /// single-threaded, which is what lets the old mutex-guarded board go).
  /// Exactly-once emission logic lives in ops/release_board.h, where the
  /// model-check suite exercises it against every ring interleaving.
  PunctReleaseBoard release_board_;

  std::vector<ShardStats> shard_stats_;
  int64_t results_emitted_ = 0;
  int64_t puncts_emitted_ = 0;
  int64_t stalls_reported_ = 0;
  int64_t shard_spin_parks_ = 0;
  int64_t router_backpressure_waits_ = 0;
  std::atomic<int64_t> workers_done_{0};
  /// Output-activity eventcount: shards bump it after pushing an OutBatch
  /// (and once on exit), so the merger can park between drains instead of
  /// spin-yielding — on few-core hosts a spinning merger steals exactly the
  /// cycles the shard workers need to produce the output it waits for.
  std::atomic<uint32_t> out_activity_{0};
  obs::Counter backpressure_counter_;
  /// Rounds partially released on the board (pjoin_punct_pending_rounds).
  obs::Gauge punct_pending_gauge_;
  bool ran_ = false;
};

}  // namespace pjoin

#endif  // PJOIN_OPS_PARALLEL_PIPELINE_H_

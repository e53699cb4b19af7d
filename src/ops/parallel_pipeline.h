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
// Because an equi-join only ever pairs tuples of equal keys, and all
// tuples of one key hash to the same shard, every shard runs the complete
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
// Runtime repartitioning (ops/repartition.h, off by default) spreads a hot
// key over every shard with one in-band handoff that the router completes
// before it routes the next element: it sends an extract down the owner's
// ring, merges outputs until the owner's copy of the key's state comes
// back, and queues that copy to every other shard ahead of anything it
// routes later. Every element is therefore routed in arrival order, under
// the placement in force when it arrives.
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
#include "ops/repartition.h"

namespace pjoin {

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
  /// A dry shard reports a stall to its join (disk join / reactive stage)
  /// after this many consecutive empty polls, then parks until data/close.
  int64_t stall_polls = 4;
  /// Capacity of each shard→merger output ring in OutBatches; a shard
  /// parks on a full ring until the merger drains it. Small values make
  /// sink backpressure (and therefore stall diagnosis) bite sooner.
  size_t out_ring_batches = 64;
  /// Stamp every Nth routed tuple with a flow id, traced through
  /// router→shard→merger as Chrome flow arrows (TRACE_FLOW_*). 0 disables
  /// sampling.
  uint64_t flow_sample_period = 1024;
  /// Runtime repartitioning (ops/repartition.h): hot-key replication via
  /// in-band handoffs. Disabled by default — the static pipeline pays
  /// nothing.
  RepartitionPolicy repartition;
};

/// Final per-shard occupancy of one run.
struct ShardStats {
  int shard = 0;
  /// Elements delivered to the shard (routed tuples + broadcasts).
  int64_t elements = 0;
  /// Tuples routed to the shard (its key subset).
  int64_t tuples = 0;
  int64_t results = 0;
  int64_t puncts_emitted = 0;
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
  int64_t shard_spin_parks() const { return shard_spin_parks_.load(); }

  // ---- Repartitioning introspection (atomics: readable mid-run) ----
  /// Always 0: replication is the only repartition action. Kept because
  /// the repository benchmark still reports it (repart.migrations).
  int64_t migrations_completed() const { return 0; }
  /// Handoffs whose extract the owner refused; the key stays where it was
  /// (also counter pjoin_migration_rollbacks_total).
  int64_t migration_rollbacks() const { return migration_rollbacks_.load(); }
  /// Handoffs started (replications + rollbacks).
  int64_t handoffs_started() const { return handoffs_started_.load(); }
  /// Keys currently hot-replicated (also gauge pjoin_hot_keys_active).
  int64_t hot_keys_active() const { return shard_map_.replicated_keys(); }
  const ShardMap& shard_map() const { return shard_map_; }

 private:
  /// An in-band repartitioning command, delivered through a shard's routed
  /// ring so FIFO order puts it behind every element dispatched before it
  /// and ahead of every element routed after it. kExtract asks the owner to
  /// copy a key's state and answer; kInstall delivers the copy to another
  /// shard, which does not answer.
  struct RepartCommand {
    enum class Kind { kExtract, kInstall };
    Kind kind = Kind::kExtract;
    /// kExtract: the key whose state to copy.
    Value key;
    /// kInstall: the state to install.
    KeyStateHandoff payload;
  };

  /// Columnar routed batch — the unit of the router→shard rings. Parallel
  /// flat arrays (borrowed element pointers, input sides, router-computed
  /// key hashes) keep the shard's probe loop walking plain memory, and the
  /// hashes are computed exactly once per tuple for the whole pipeline.
  struct RoutedBatch {
    std::vector<const StreamElement*> elements;
    std::vector<int8_t> sides;
    /// Join-key hash per element; 0 (unused) for punctuations and EOS.
    std::vector<uint64_t> key_hashes;
    int64_t tuple_count = 0;
    /// Wall-clock (TraceNowMicros) router dispatch time of the batch; the
    /// shard hands it to the join so emits can observe end-to-end latency,
    /// and publishes it while it works on the batch, so the stall diagnosis
    /// (obs/health.h) can read how far the shard trails the router.
    /// Coarse (refreshed every few router iterations).
    TimeMicros ingress_us = 0;
    /// Sampled causal-trace flow id (0 = unsampled batch): stamped by the
    /// router on ~1/flow_sample_period tuples, stepped by the shard,
    /// terminated by the merger.
    uint64_t flow_id = 0;
    /// A command batch carries exactly one command and no elements.
    std::unique_ptr<RepartCommand> command;
  };

  /// The unit of the shard→merger rings: staged results followed by the
  /// punctuation releases recorded after them. The merger emits the
  /// results first, so a release never overtakes a result it covers.
  struct OutBatch {
    /// Results as flat rows of `row_width_` values each: the matched left
    /// tuple's values followed by the right tuple's.
    std::vector<Value> rows;
    std::vector<Punctuation> releases;
    /// Flow id carried over from the newest sampled RoutedBatch this shard
    /// processed (0 = none): lets the merger close the flow arrow.
    uint64_t flow_id = 0;
    /// An extract answer (the copied state, or the owner's refusal) rides
    /// alone in its own batch, behind the output the shard staged before
    /// executing the command.
    std::unique_ptr<Result<KeyStateHandoff>> handoff;
  };

  // Per-shard context: the two rings, progress counters, staging buffers.
  struct Shard;

  void RouterLoop(const std::vector<StreamElement>& left,
                  const std::vector<StreamElement>& right);
  void ShardLoop(Shard* shard);
  /// Dispatches one element (tuple / punctuation / EOS) under the current
  /// shard map.
  void RouteElement(int side, const StreamElement* e);
  /// Carries out one replication decision before the router routes another
  /// element: flushes every shard's staged batch, sends the extract to the
  /// owner and merges outputs until its answer arrives, then queues the
  /// build side's copy to the other shards and marks the key replicated, or
  /// blocklists a refused key.
  void Replicate(const RepartitionDecision& decision);
  /// Pushes a command batch to `shard` behind its staged elements (FIFO
  /// order).
  void PushCommand(int shard, RepartCommand cmd);
  /// Shard-side command execution against the local join; an extract is
  /// answered through the shard's output ring.
  void ExecuteCommand(Shard* shard, RepartCommand& cmd);
  /// Appends element `e` (borrowed) to `shard`'s pending batch, flushing
  /// when full.
  void Stage(int shard, int8_t side, const StreamElement* e,
             uint64_t key_hash, TimeMicros ingress_us, uint64_t flow_id = 0);
  void FlushStaged(int shard);
  /// Pushes `batch` into `shard`'s routed ring. The router never parks:
  /// on a full ring it drains the output rings and retries.
  void PushRouted(int shard, RoutedBatch batch);
  /// Drains all shard output rings into the user callbacks and the release
  /// board (router/caller thread only). Returns the number of OutBatches
  /// merged, so callers waiting on output can park when a sweep comes back
  /// empty.
  size_t DrainOutputs();
  /// Spray shard for one tuple of a replicated key: least merged output,
  /// round-robin until output differentiates the shards.
  int SprayTarget(uint64_t key_hash);
  /// Builds and emits `shard`'s result rows, then credits its releases on
  /// the board; an extract answer is stored in `handoff_answer_`.
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

  // ---- Repartitioning (router/merger thread only, like the board) ----
  /// The single source of truth for key → shard placement: tuple routing
  /// and punctuation routing both consult this map, so they can never
  /// disagree about a key's owner.
  ShardMap shard_map_;
  bool repart_enabled_ = false;
  std::unique_ptr<RepartitionController> controller_;
  /// The owner's extract answer, stored by MergeOutBatch for Replicate
  /// (null outside a handoff).
  std::unique_ptr<Result<KeyStateHandoff>> handoff_answer_;
  /// Per-side join-key positions of the running RouterLoop.
  size_t key_index_[2] = {0, 0};
  /// Coarse dispatch timestamp (see RouterLoop's refresh cadence).
  TimeMicros route_now_us_ = 0;
  /// Tuples routed so far — the flow-id source: tuple ordinal N gets flow
  /// id N when N falls on the sampling period (deterministic for a fixed
  /// input order).
  int64_t routed_tuples_ = 0;
  /// Result rows merged per shard so far (router/merger thread). Feeds
  /// SprayTarget's least-output choice for replicated keys.
  std::vector<int64_t> merged_results_;

  /// Punctuation release board — router/caller thread only (the merger is
  /// single-threaded, which is what lets the old mutex-guarded board go).
  /// Exactly-once emission logic lives in ops/release_board.h, where the
  /// model-check suite exercises it against every ring interleaving.
  PunctReleaseBoard release_board_;

  std::vector<ShardStats> shard_stats_;
  int64_t results_emitted_ = 0;
  int64_t puncts_emitted_ = 0;
  int64_t stalls_reported_ = 0;
  int64_t router_backpressure_waits_ = 0;
  /// Bumped by every shard worker (default ordering — a plain counter, no
  /// publication protocol).
  std::atomic<int64_t> shard_spin_parks_{0};
  std::atomic<int64_t> workers_done_{0};
  /// Output-activity eventcount: shards bump it after pushing an OutBatch
  /// (and once on exit), so the merger can park between drains instead of
  /// spin-yielding — on few-core hosts a spinning merger steals exactly the
  /// cycles the shard workers need to produce the output it waits for.
  std::atomic<uint32_t> out_activity_{0};
  obs::Counter backpressure_counter_;
  std::atomic<int64_t> migration_rollbacks_{0};
  std::atomic<int64_t> handoffs_started_{0};
  obs::Counter rollbacks_counter_;
  obs::Gauge hot_keys_gauge_;
  obs::Gauge imbalance_gauge_;
  /// Rounds partially released on the board (pjoin_punct_pending_rounds).
  obs::Gauge punct_pending_gauge_;
  bool ran_ = false;
};

}  // namespace pjoin

#endif  // PJOIN_OPS_PARALLEL_PIPELINE_H_

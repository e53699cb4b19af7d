// JoinOperator: the common interface and machinery of the stream equi-joins
// in this library (SHJ, XJoin, PJoin): two HashStates, the per-tuple memory
// join, state relocation, output callbacks and metrics.

#ifndef PJOIN_JOIN_JOIN_BASE_H_
#define PJOIN_JOIN_JOIN_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "exec/monitor.h"
#include "join/hash_state.h"
#include "obs/metrics_registry.h"
#include "stream/element.h"
#include "storage/spill_manager.h"
#include "storage/spill_store.h"

namespace pjoin {

/// How PJoin's state purge locates purgeable tuples.
enum class PurgeMode {
  /// Scan the memory state applying setMatch (the paper's algorithm; cost
  /// proportional to state size — this is what makes eager purge expensive).
  kScan,
  /// Use the punctuation set's constant-pattern hash index to jump straight
  /// to purgeable buckets (an extension beyond the paper; see ablation A2).
  kIndexed,
};

/// How PJoin reacts to runtime punctuation-contract violations (late tuples
/// matching an already-seen punctuation, malformed or non-prefix
/// punctuations). See docs/ROBUSTNESS.md.
enum class ViolationPolicy {
  /// No contract checking (the paper's trusting behavior; default).
  kIgnore,
  /// Count the violation, raise ContractViolationEvent, drop the element.
  /// Purge decisions stay sound: output equals the clean-input result with
  /// the violating elements removed.
  kDrop,
  /// Like kDrop, but violating elements are retained for inspection
  /// (PJoin::quarantined_tuples / quarantined_puncts).
  kQuarantine,
  /// Fail the join with FailedPrecondition on the first violation.
  kFail,
};

/// Configuration shared by all join operators; PJoin-only fields are ignored
/// by SHJ / XJoin.
struct JoinOptions {
  /// Join attribute index in each input schema.
  size_t left_key = 0;
  size_t right_key = 0;
  /// Number of hash partitions per state.
  int num_partitions = 16;
  /// Thresholds (purge / memory / propagation / disk-join activation).
  RuntimeParams runtime;
  /// PJoin: drop arriving tuples already covered by the opposite stream's
  /// punctuations (§4.3).
  bool drop_on_the_fly = true;
  /// PJoin: build the punctuation index on every punctuation arrival (eager)
  /// instead of just before propagation (lazy, the Table 1 default).
  bool eager_index_build = false;
  /// PJoin: also run propagation right after every state purge, releasing
  /// punctuations the moment their match count reaches zero instead of
  /// waiting for the next push/pull trigger (the paper's §3.5 observation
  /// that eager maintenance lets punctuations "be detected to be propagable
  /// much earlier than the next invocation of propagation"). Requires
  /// eager_index_build to be useful.
  bool eager_propagation = false;
  /// PJoin: run a final propagation when both inputs finish.
  bool propagate_on_finish = true;
  /// Validate the §2.2 prefix condition on incoming punctuations.
  bool validate_prefix = false;
  /// PJoin: runtime reaction to punctuation-contract violations. With
  /// kIgnore no checks run (inputs are trusted, as the paper assumes); any
  /// other policy validates every arriving element. With validate_prefix
  /// also on, prefix-condition failures are routed through this policy
  /// instead of aborting the join.
  ViolationPolicy violation_policy = ViolationPolicy::kIgnore;
  /// PJoin purge strategy implementation.
  PurgeMode purge_mode = PurgeMode::kScan;
  /// Probe the memory portions through the per-partition hash index
  /// (default). False restores the paper's linear bucket scan — used by the
  /// figure benches, whose cost-model shape checks assume scan probing, and
  /// as the baseline the probe micro/scaling benches compare against.
  bool indexed_probe = true;
  /// Spill-store factory, one call per input state. Defaults to
  /// SimulatedDisk.
  std::function<std::unique_ptr<SpillStore>()> spill_factory;
  /// Per-partition spill decisions under memory pressure (victim selection,
  /// early purge, degradation ladder); see
  /// storage/spill_manager.h and docs/ROBUSTNESS.md. SpillMode::
  /// kGlobalThreshold restores the paper's flush-the-largest behavior.
  SpillPolicy spill_policy;
  /// Observer for SpillManager events (currently kDegradedMode when the
  /// manager falls back to global-threshold mode).
  std::function<void(const Event&)> spill_event_sink;
  /// Record the join-state size every this many microseconds of stream
  /// (virtual) time; 0 disables recording.
  TimeMicros state_sample_interval = 0;
};

/// A router-prepared batch of stream elements as parallel arrays: borrowed
/// element pointers (the elements outlive the batch), their input sides,
/// and — for tuples — the join-key hash, computed once upstream and reused
/// by the shard's partition selection, index probe and insert instead of
/// rehashing (ops/parallel_pipeline.h builds these).
struct ElementBatch {
  const StreamElement* const* elements = nullptr;
  const int8_t* sides = nullptr;
  /// Key hash per element; meaningful only where the element is a tuple.
  const uint64_t* key_hashes = nullptr;
  size_t size = 0;
};

class JoinOperator {
 public:
  /// Receives each join result as its matched pair: the left-stream tuple
  /// and the right-stream tuple, whose concatenation under output_schema()
  /// is the result. Both are borrowed for the call only. This is the one
  /// path results leave a join by; a consumer that copies out the values
  /// it needs (the parallel pipeline's flat result rows) allocates nothing
  /// per result.
  using PairCallback =
      std::function<void(const Tuple& left, const Tuple& right)>;
  /// Receives each result as a freshly concatenated Tuple by rvalue; a
  /// lambda taking `const Tuple&` binds as well.
  using ResultCallback = std::function<void(Tuple&&)>;
  using PunctCallback = std::function<void(const Punctuation&)>;

  JoinOperator(SchemaPtr left_schema, SchemaPtr right_schema,
               JoinOptions options);
  virtual ~JoinOperator() = default;
  PJOIN_DISALLOW_COPY_AND_MOVE(JoinOperator);

  /// Schema of result tuples (left fields then right fields).
  const SchemaPtr& output_schema() const { return output_schema_; }

  void set_pair_callback(PairCallback cb) { on_pair_ = std::move(cb); }
  /// Installs `cb` as the pair callback behind a Tuple::Concat, which costs
  /// one allocation per result; a null `cb` clears the pair callback.
  void set_result_callback(ResultCallback cb);
  void set_punct_callback(PunctCallback cb) { on_punct_ = std::move(cb); }

  /// Feeds one element of input `side` (0 = left, 1 = right): hashes a
  /// tuple's join key and processes a one-element batch. When both sides
  /// have delivered end-of-stream, Finish() runs automatically.
  Status OnElement(int side, const StreamElement& element);

  /// Feeds a whole routed batch in order — the one dispatch loop. Tuples go
  /// to OnTupleHashed with the batch's precomputed key hashes (so a key
  /// hashes exactly once end to end), and the hot counters flush once per
  /// run of consecutive tuples instead of once per tuple. The state series
  /// is sampled after every element.
  Status ProcessBatch(const ElementBatch& batch);

  /// Hook for the driver when both inputs are stalled (network lull): XJoin
  /// runs its reactive stage, PJoin its disk join. Default: no-op.
  virtual Status OnStreamsStalled();

  /// Lifts an input-side punctuation onto the output schema: the side's
  /// patterns carry over, everything else is a wildcard, and the equi-join
  /// predicate transfers the key pattern to the other side's key position.
  /// Deterministic, so the parallel pipeline's router can predict the exact
  /// output punctuation a shard will release (release-board dispatch
  /// accounting).
  Punctuation MakeOutputPunct(int side, const Punctuation& punct) const;

  // ---- Introspection ----
  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  int64_t results_emitted() const { return results_emitted_; }
  int64_t puncts_emitted() const { return puncts_emitted_; }

  const HashState& state(int side) const;
  /// Spill-decision counters of this operator's SpillManager (spills,
  /// tuples and bytes spilled / early-purged, failures, degradation): the
  /// one source of spill numbers.
  const SpillDecisionStats& spill_stats() const {
    return spill_manager_->stats();
  }
  /// Tuples retained across both states (memory + disk + purge buffers).
  int64_t total_state_tuples() const;
  /// In-memory tuples across both states.
  int64_t memory_state_tuples() const;
  /// Approximate in-memory payload bytes across both states.
  int64_t memory_state_bytes() const;

  /// State size over virtual time (when state_sample_interval > 0).
  const TimeSeries& state_series() const { return state_series_; }
  /// Virtual arrival time of the most recently processed element.
  TimeMicros last_arrival() const { return last_arrival_; }

  // ---- Live introspection (docs/OBSERVABILITY.md) ----
  //
  // All of this is opt-in: an unbound operator (the default, and every
  // single-threaded bench baseline) pays nothing — inert handles, no clock
  // reads.

  /// Registers the end-to-end latency histograms under `labels` (e.g.
  /// "pipeline=parallel,shard=3"): pjoin_tuple_latency_seconds observes
  /// ingress → the end of the batch or stall pass that emitted the result,
  /// and pjoin_punct_propagation_seconds observes ingress→punct-emit (the
  /// live analogue of the paper's fig 14), both in microseconds with a
  /// 1e-6 exposition scale.
  void BindLatencyMetrics(std::string_view labels);

  /// Wall-clock (TraceNowMicros) arrival time of the element currently
  /// being processed; the pipeline running the join sets it right before
  /// OnElement, ProcessBatch or OnStreamsStalled so emits can attribute
  /// latency. 0 = unknown (nothing is recorded).
  void set_element_ingress_micros(TimeMicros us) { ingress_us_ = us; }

  /// Observes pjoin_tuple_latency_seconds once for every result emitted
  /// since the last call, with one clock read against the ingress stamp in
  /// force when they were emitted. ProcessBatch calls it before it returns;
  /// the pipeline running the join calls it after OnStreamsStalled.
  void ObserveResultLatency();

  /// Registers per-side state-size gauges (memory/disk/purge-buffer tuples,
  /// memory bytes) under `labels`; subclasses may add their own via
  /// PublishExtraGauges.
  void BindStateGauges(std::string_view labels);
  /// Publishes the current state sizes to the bound gauges. Call from the
  /// thread that owns this operator (gauge writes are atomic; HashState
  /// reads are not locked).
  void PublishStateGauges();

 protected:
  // ---- Subclass interface ----
  /// Tuple arrival, with the tuple's join-key hash already computed.
  virtual Status OnTupleHashed(int side, const Tuple& tuple,
                               uint64_t key_hash) = 0;
  virtual Status OnPunctuation(int side, const Punctuation& punct) = 0;
  /// Runs once after both inputs reached end-of-stream.
  virtual Status Finish() = 0;

  // ---- Shared machinery for subclasses ----

  HashState& mutable_state(int side);

  const JoinOptions& options() const { return options_; }

  /// Monotone event ticks; every arrival / relocation / purge / disk probe
  /// consumes one, giving a total order for duplicate avoidance.
  int64_t NextTick() { return ++tick_; }
  int64_t current_tick() const { return tick_; }

  /// Probes the memory portion of the state opposite to `side` with `tuple`
  /// (whose join-key hash is `key_hash`) and emits all matches. Returns the
  /// number of results emitted. Probe comparisons accumulate locally and
  /// flush to the "probe_comparisons" counter at the next element/batch
  /// boundary (FlushBatchCounters).
  int64_t ProbeOppositeMemory(int side, const Tuple& tuple,
                              uint64_t key_hash);

  /// Inserts `tuple` into side's state with ats = `tick`, seeding the
  /// entry's cached key hash so the state skips the rehash at insert.
  void InsertTuple(int side, const Tuple& tuple, int64_t tick,
                   uint64_t key_hash);

  /// Brings the in-memory total below the memory threshold via the
  /// SpillManager (adaptive per-partition decisions by default; the paper's
  /// flush-the-largest relocation of §3.3 in global-threshold mode).
  Status RelocateUntilBelowThreshold();

  /// The operator's spill manager (subclasses wire hooks: PJoin installs
  /// the punctuation-aware early purger).
  SpillManager& spill_manager() { return *spill_manager_; }

  /// Emits one join result (left must be a left-stream tuple) through the
  /// pair callback.
  void EmitResult(const Tuple& left, const Tuple& right);
  /// Emits a punctuation on the output schema.
  void EmitPunctuation(Punctuation punct);

  /// Records a state-size sample at the current virtual time.
  void SampleState();

  /// Subclass hook run by PublishStateGauges (PJoin publishes punctuation
  /// set sizes — the live purge watermarks).
  virtual void PublishExtraGauges() {}
  /// Labels BindStateGauges was called with ("" when unbound).
  const std::string& state_gauge_labels() const {
    return state_gauge_labels_;
  }

 private:
  /// ProcessBatch's element loop.
  Status DispatchBatch(const ElementBatch& batch);

  /// Flushes the locally accumulated hot-path tallies into counters();
  /// ProcessBatch calls it after every punctuation, end-of-stream and run
  /// of consecutive tuples.
  void FlushBatchCounters();

  JoinOptions options_;
  SchemaPtr output_schema_;
  std::unique_ptr<HashState> states_[2];
  std::unique_ptr<SpillManager> spill_manager_;
  PairCallback on_pair_;
  PunctCallback on_punct_;
  CounterSet counters_;
  TimeSeries state_series_;
  int64_t tick_ = 0;
  /// Probe comparisons since the last FlushBatchCounters (hot-path tally;
  /// the CounterSet map lookup happens once per element/batch, not per
  /// probe).
  int64_t pending_probe_comparisons_ = 0;
  int64_t results_emitted_ = 0;
  int64_t puncts_emitted_ = 0;
  TimeMicros last_arrival_ = 0;
  bool eos_[2] = {false, false};
  bool finished_ = false;

  // Live-introspection state; all handles inert until the Bind* calls.
  obs::Histogram tuple_latency_hist_;
  obs::Histogram punct_lag_hist_;
  TimeMicros ingress_us_ = 0;
  /// Results emitted since the last ObserveResultLatency (counted only
  /// while the histogram is bound and an ingress stamp is set).
  int64_t unobserved_results_ = 0;
  std::string state_gauge_labels_;
  bool state_gauges_bound_ = false;
  obs::Gauge mem_tuples_gauge_[2];
  obs::Gauge disk_tuples_gauge_[2];
  obs::Gauge purge_buffer_gauge_[2];
  obs::Gauge mem_bytes_gauge_[2];
};

/// "base,extra" — joins two "k=v,..." label strings, eliding empties.
std::string JoinLabels(std::string_view base, std::string_view extra);

}  // namespace pjoin

#endif  // PJOIN_JOIN_JOIN_BASE_H_

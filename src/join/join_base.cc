#include "join/join_base.h"

#include "obs/trace.h"
#include "storage/simulated_disk.h"

namespace pjoin {

JoinOperator::JoinOperator(SchemaPtr left_schema, SchemaPtr right_schema,
                           JoinOptions options)
    : options_(std::move(options)),
      state_series_(options_.state_sample_interval) {
  if (!options_.spill_factory) {
    options_.spill_factory = [] { return std::make_unique<SimulatedDisk>(); };
  }
  output_schema_ = Schema::Concat(*left_schema, *right_schema);
  states_[0] = std::make_unique<HashState>(
      "left", std::move(left_schema), options_.left_key,
      options_.num_partitions, options_.spill_factory(),
      options_.indexed_probe);
  states_[1] = std::make_unique<HashState>(
      "right", std::move(right_schema), options_.right_key,
      options_.num_partitions, options_.spill_factory(),
      options_.indexed_probe);
  spill_manager_ = std::make_unique<SpillManager>(
      options_.spill_policy, states_[0].get(), states_[1].get());
  spill_manager_->set_event_sink(options_.spill_event_sink);
}

const HashState& JoinOperator::state(int side) const {
  PJOIN_DCHECK(side == 0 || side == 1);
  return *states_[side];
}

HashState& JoinOperator::mutable_state(int side) {
  PJOIN_DCHECK(side == 0 || side == 1);
  return *states_[side];
}

int64_t JoinOperator::total_state_tuples() const {
  return states_[0]->total_tuples() + states_[1]->total_tuples();
}

int64_t JoinOperator::memory_state_tuples() const {
  return states_[0]->memory_tuples() + states_[1]->memory_tuples();
}

int64_t JoinOperator::memory_state_bytes() const {
  return states_[0]->memory_bytes() + states_[1]->memory_bytes();
}

Status JoinOperator::OnElement(int side, const StreamElement& element) {
  PJOIN_DCHECK(side == 0 || side == 1);
  const StreamElement* const e = &element;
  const int8_t s = static_cast<int8_t>(side);
  const uint64_t key_hash =
      element.is_tuple() ? states_[side]->KeyOf(element.tuple()).Hash() : 0;
  return ProcessBatch(ElementBatch{&e, &s, &key_hash, 1});
}

Status JoinOperator::ProcessBatch(const ElementBatch& batch) {
  const Status st = DispatchBatch(batch);
  ObserveResultLatency();
  return st;
}

Status JoinOperator::DispatchBatch(const ElementBatch& batch) {
  size_t i = 0;
  while (i < batch.size) {
    PJOIN_DCHECK(!finished_);
    if (batch.elements[i]->kind() == ElementKind::kTuple) {
      // A run of consecutive tuples: one "tuples_in" add and one tally
      // flush per run instead of per tuple.
      const size_t run_start = i;
      do {
        const StreamElement& e = *batch.elements[i];
        last_arrival_ = std::max(last_arrival_, e.arrival());
        PJOIN_RETURN_NOT_OK(
            OnTupleHashed(batch.sides[i], e.tuple(), batch.key_hashes[i]));
        SampleState();
        ++i;
      } while (i < batch.size &&
               batch.elements[i]->kind() == ElementKind::kTuple);
      counters_.Add("tuples_in", static_cast<int64_t>(i - run_start));
      FlushBatchCounters();
      continue;
    }
    const int side = batch.sides[i];
    const StreamElement& e = *batch.elements[i];
    ++i;
    last_arrival_ = std::max(last_arrival_, e.arrival());
    if (e.is_punctuation()) {
      counters_.Add("puncts_in");
      PJOIN_RETURN_NOT_OK(OnPunctuation(side, e.punctuation()));
    } else {
      eos_[side] = true;
      if (eos_[0] && eos_[1]) {
        finished_ = true;
        PJOIN_RETURN_NOT_OK(Finish());
      }
    }
    FlushBatchCounters();
    SampleState();
  }
  return Status::OK();
}

Status JoinOperator::OnStreamsStalled() { return Status::OK(); }

Punctuation JoinOperator::MakeOutputPunct(int side,
                                          const Punctuation& punct) const {
  const size_t left_width = states_[0]->schema()->num_fields();
  const size_t right_width = states_[1]->schema()->num_fields();
  std::vector<Pattern> patterns(left_width + right_width,
                                Pattern::Wildcard());
  if (side == 0) {
    for (size_t i = 0; i < left_width; ++i) patterns[i] = punct.pattern(i);
    // The equi-join predicate transfers the key pattern to the other side.
    patterns[left_width + options_.right_key] =
        punct.pattern(options_.left_key);
  } else {
    for (size_t i = 0; i < right_width; ++i) {
      patterns[left_width + i] = punct.pattern(i);
    }
    patterns[options_.left_key] = punct.pattern(options_.right_key);
  }
  return Punctuation(std::move(patterns));
}

int64_t JoinOperator::ProbeOppositeMemory(int side, const Tuple& tuple,
                                          uint64_t key_hash) {
  TRACE_SPAN("join", "probe");
  HashState& own = *states_[side];
  HashState& opp = *states_[1 - side];
  const Value& key = own.KeyOf(tuple);
  const int p = opp.PartitionOfHash(key_hash);
  opp.NotePartitionProbed(p, current_tick());
  int64_t emitted = 0;
  pending_probe_comparisons_ +=
      opp.ForEachMemoryMatch(p, key, key_hash, [&](const TupleEntry& entry) {
        if (side == 0) {
          EmitResult(tuple, entry.tuple);
        } else {
          EmitResult(entry.tuple, tuple);
        }
        ++emitted;
      });
  return emitted;
}

void JoinOperator::FlushBatchCounters() {
  if (pending_probe_comparisons_ != 0) {
    counters_.Add("probe_comparisons", pending_probe_comparisons_);
    pending_probe_comparisons_ = 0;
  }
}

void JoinOperator::InsertTuple(int side, const Tuple& tuple, int64_t tick,
                               uint64_t key_hash) {
  TupleEntry entry;
  entry.tuple = tuple;
  entry.ats = tick;
  entry.key_hash = key_hash;
  states_[side]->InsertMemory(std::move(entry));
}

Status JoinOperator::RelocateUntilBelowThreshold() {
  TRACE_SPAN("join", "relocate");
  return spill_manager_->EnsureWithinBudget(
      options_.runtime.memory_threshold_tuples,
      options_.runtime.memory_threshold_bytes, current_tick(),
      [this] { return NextTick(); });
}

void JoinOperator::set_result_callback(ResultCallback cb) {
  if (cb == nullptr) {
    on_pair_ = nullptr;
    return;
  }
  on_pair_ = [cb = std::move(cb), schema = output_schema_](
                 const Tuple& left, const Tuple& right) {
    cb(Tuple::Concat(left, right, schema));
  };
}

void JoinOperator::EmitResult(const Tuple& left, const Tuple& right) {
  ++results_emitted_;
  if (tuple_latency_hist_.bound() && ingress_us_ > 0) ++unobserved_results_;
  if (on_pair_) on_pair_(left, right);
}

void JoinOperator::ObserveResultLatency() {
  if (unobserved_results_ == 0) return;
  tuple_latency_hist_.Observe(obs::TraceNowMicros() - ingress_us_,
                              unobserved_results_);
  unobserved_results_ = 0;
}

void JoinOperator::EmitPunctuation(Punctuation punct) {
  TRACE_INSTANT("join", "punct_out");
  ++puncts_emitted_;
  counters_.Add("puncts_propagated");
  if (punct_lag_hist_.bound() && ingress_us_ > 0) {
    // Lag from the *current* element's ingress: when propagation runs
    // inline with the triggering arrival this is exactly punct-in →
    // punct-out; for deferred propagation (disk join, finish) it measures
    // trigger → release, the part the operator controls.
    punct_lag_hist_.Observe(obs::TraceNowMicros() - ingress_us_);
  }
  if (on_punct_) on_punct_(punct);
}

void JoinOperator::BindLatencyMetrics(std::string_view labels) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  tuple_latency_hist_ = registry.GetHistogram("pjoin_tuple_latency_seconds",
                                              labels, /*unit_scale=*/1e-6);
  punct_lag_hist_ = registry.GetHistogram("pjoin_punct_propagation_seconds",
                                          labels, /*unit_scale=*/1e-6);
}

void JoinOperator::BindStateGauges(std::string_view labels) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  state_gauge_labels_ = std::string(labels);
  static constexpr std::string_view kSide[2] = {"side=left", "side=right"};
  for (int side = 0; side < 2; ++side) {
    const std::string side_labels = JoinLabels(labels, kSide[side]);
    mem_tuples_gauge_[side] =
        registry.GetGauge("pjoin_state_memory_tuples", side_labels);
    disk_tuples_gauge_[side] =
        registry.GetGauge("pjoin_state_disk_tuples", side_labels);
    purge_buffer_gauge_[side] =
        registry.GetGauge("pjoin_state_purge_buffer_tuples", side_labels);
    mem_bytes_gauge_[side] =
        registry.GetGauge("pjoin_state_memory_bytes", side_labels);
  }
  state_gauges_bound_ = true;
}

void JoinOperator::PublishStateGauges() {
  if (!state_gauges_bound_) return;
  for (int side = 0; side < 2; ++side) {
    const HashState& state = *states_[side];
    mem_tuples_gauge_[side].Set(state.memory_tuples());
    disk_tuples_gauge_[side].Set(state.disk_tuples());
    purge_buffer_gauge_[side].Set(state.purge_buffer_tuples());
    mem_bytes_gauge_[side].Set(state.memory_bytes());
  }
  PublishExtraGauges();
}

std::string JoinLabels(std::string_view base, std::string_view extra) {
  if (base.empty()) return std::string(extra);
  if (extra.empty()) return std::string(base);
  std::string out;
  out.reserve(base.size() + 1 + extra.size());
  out.append(base);
  out.push_back(',');
  out.append(extra);
  return out;
}

void JoinOperator::SampleState() {
  if (options_.state_sample_interval <= 0) return;
  state_series_.Record(last_arrival_, total_state_tuples());
}

}  // namespace pjoin

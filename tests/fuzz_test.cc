// Randomized correctness fuzzing with an *adversarial* stream model that is
// deliberately different from the SharedDomain benchmark generator: each
// stream punctuates keys independently while the opposite stream may still
// be producing them. This exercises on-the-fly drops, purge buffers, and
// every disk-join path against the nested-loop reference.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_spill_store.h"
#include "fault/perturb_stream.h"
#include "gen/auction.h"
#include "join/pjoin.h"
#include "join/shj.h"
#include "join/xjoin.h"
#include "storage/recovering_spill_store.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::KeyPayloadSchema;
using testing::ReferenceJoinRows;
using testing::ReleaseOrderChecker;
using testing::RunJoin;

struct FuzzStreams {
  SchemaPtr schema_a;
  SchemaPtr schema_b;
  std::vector<StreamElement> a;
  std::vector<StreamElement> b;
};

// Generates one stream: tuples draw keys from this stream's not-yet-
// punctuated set; with probability `punct_prob` a random still-open key is
// punctuated (constant patterns are pairwise disjoint, so the §2.2 prefix
// condition holds trivially). Punctuation soundness holds by construction:
// a punctuated key leaves this stream's sampling set forever.
std::vector<StreamElement> FuzzStream(const SchemaPtr& schema, Rng& rng,
                                      int64_t num_keys, int64_t num_tuples,
                                      double punct_prob) {
  std::vector<int64_t> open_keys;
  for (int64_t k = 0; k < num_keys; ++k) open_keys.push_back(k);
  std::vector<StreamElement> out;
  TimeMicros now = 0;
  int64_t seq = 0;
  int64_t payload = 0;
  for (int64_t i = 0; i < num_tuples && !open_keys.empty(); ++i) {
    now += 1 + static_cast<TimeMicros>(rng.NextBounded(2000));
    const size_t pick = rng.NextBounded(open_keys.size());
    out.push_back(StreamElement::MakeTuple(
        Tuple(schema, {Value(open_keys[pick]), Value(payload++)}), now,
        seq++));
    if (rng.NextBool(punct_prob) && open_keys.size() > 1) {
      const size_t victim = rng.NextBounded(open_keys.size());
      out.push_back(StreamElement::MakePunctuation(
          Punctuation::ForAttribute(
              2, 0, Pattern::Constant(Value(open_keys[victim]))),
          now, seq++));
      open_keys.erase(open_keys.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  out.push_back(StreamElement::MakeEndOfStream(now, seq++));
  return out;
}

FuzzStreams MakeFuzz(uint64_t seed) {
  Rng rng(seed);
  FuzzStreams out;
  out.schema_a = KeyPayloadSchema("a");
  out.schema_b = KeyPayloadSchema("b");
  const int64_t keys = 3 + static_cast<int64_t>(rng.NextBounded(8));
  const int64_t tuples = 50 + static_cast<int64_t>(rng.NextBounded(200));
  const double prob = 0.02 + 0.1 * rng.NextDouble();
  out.a = FuzzStream(out.schema_a, rng, keys, tuples, prob);
  out.b = FuzzStream(out.schema_b, rng, keys, tuples, prob);
  return out;
}

class JoinFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzz, AllJoinsAllConfigsMatchReference) {
  FuzzStreams f = MakeFuzz(GetParam());
  Rng cfg_rng(GetParam() ^ 0xC0FFEE);

  SymmetricHashJoin shj(f.schema_a, f.schema_b);
  auto reference =
      ReferenceJoinRows(f.a, f.b, shj.output_schema(), 0, 0);
  auto shj_run = RunJoin(&shj, f.a, f.b);
  ASSERT_EQ(shj_run.results, reference);

  // XJoin with a random tight memory threshold.
  {
    JoinOptions opts;
    opts.runtime.memory_threshold_tuples =
        2 + static_cast<int64_t>(cfg_rng.NextBounded(40));
    XJoin join(f.schema_a, f.schema_b, opts);
    auto run = RunJoin(&join, f.a, f.b, /*stall_gap=*/3000);
    EXPECT_EQ(run.results, reference)
        << "XJoin mem=" << opts.runtime.memory_threshold_tuples;
  }

  // PJoin with randomized knobs.
  for (int round = 0; round < 3; ++round) {
    JoinOptions opts;
    opts.runtime.purge_threshold =
        1 + static_cast<int64_t>(cfg_rng.NextBounded(20));
    opts.runtime.memory_threshold_tuples =
        cfg_rng.NextBool(0.5)
            ? 2 + static_cast<int64_t>(cfg_rng.NextBounded(40))
            : std::numeric_limits<int64_t>::max();
    opts.runtime.propagate_count_threshold =
        cfg_rng.NextBool(0.5)
            ? 1 + static_cast<int64_t>(cfg_rng.NextBounded(8))
            : 0;
    opts.eager_index_build = cfg_rng.NextBool(0.5);
    opts.eager_propagation = cfg_rng.NextBool(0.3);
    opts.drop_on_the_fly = cfg_rng.NextBool(0.8);
    opts.purge_mode =
        cfg_rng.NextBool(0.5) ? PurgeMode::kScan : PurgeMode::kIndexed;
    PJoin join(f.schema_a, f.schema_b, opts);

    // Theorem 1 checked inline: emitted punctuations must never be
    // contradicted by later results.
    ReleaseOrderChecker order;
    join.set_punct_callback(
        [&order](const Punctuation& p) { order.OnPunct(p); });
    std::vector<std::string> rows;
    join.set_result_callback([&](const Tuple& t) {
      rows.push_back(t.ToString());
      order.OnResult(t);
    });
    PipelineOptions popts;
    popts.stall_gap_micros = 3000;
    JoinPipeline pipe(&join, nullptr, popts);
    ASSERT_TRUE(pipe.Run(f.a, f.b).ok());
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, reference)
        << "PJoin purge=" << opts.runtime.purge_threshold
        << " mem=" << opts.runtime.memory_threshold_tuples
        << " prop=" << opts.runtime.propagate_count_threshold
        << " eager_idx=" << opts.eager_index_build
        << " otf=" << opts.drop_on_the_fly;
    EXPECT_EQ(order.violations(), 0)
        << "Theorem 1 violated (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// ---- Chaos fuzzing: random fault plans over the auction workload ----
//
// Each seed derives a random FaultPlan (stream contract violations on both
// inputs, recoverable I/O faults on the spill stores). A PJoin with
// ViolationPolicy::kDrop, a tight memory threshold, and RecoveringSpillStore-
// wrapped faulty stores must produce exactly the reference result over the
// *sanitized* views (faulty minus the injected violations), with every
// injected violation counted and surfaced as a ContractViolationEvent.

double MaybeRate(Rng& rng, double max_rate) {
  return rng.NextBool(0.7) ? max_rate * rng.NextDouble() : 0.0;
}

FaultPlan RandomPlan(uint64_t seed) {
  Rng rng(seed ^ 0xFA017);
  FaultPlan plan;
  plan.seed = seed * 2654435761 + 1;
  for (int s = 0; s < 2; ++s) {
    plan.stream[s].late_tuple_rate = MaybeRate(rng, 0.05);
    plan.stream[s].malformed_punct_rate = MaybeRate(rng, 0.03);
    plan.stream[s].duplicate_rate = MaybeRate(rng, 0.05);
    plan.stream[s].reorder_rate = MaybeRate(rng, 0.1);
    plan.stream[s].stall_rate = MaybeRate(rng, 0.02);
  }
  plan.io.transient_write_error_rate = MaybeRate(rng, 0.2);
  plan.io.transient_read_error_rate = MaybeRate(rng, 0.2);
  plan.io.short_write_rate = MaybeRate(rng, 0.2);
  plan.io.latency_spike_rate = MaybeRate(rng, 0.1);
  // Permanent write failure is recoverable (reads survive, so the fallback
  // migration preserves all data); permanent read failure is genuine data
  // loss and stays out of the correctness fuzz.
  if (rng.NextBool(0.4)) {
    plan.io.permanent_write_failure_after =
        3 + static_cast<int64_t>(rng.NextBounded(20));
  }
  // Partition-targeted and repartition-phase faults exercise the
  // SpillManager's quarantine/degrade ladder, which the global rates above
  // cannot isolate to a single partition or to the split path.
  if (rng.NextBool(0.5)) {
    plan.io.target_partition = static_cast<int>(rng.NextBounded(16));
    plan.io.partition_write_error_rate = MaybeRate(rng, 0.3);
    plan.io.partition_read_error_rate = MaybeRate(rng, 0.3);
  }
  plan.io.repartition_error_rate = MaybeRate(rng, 0.3);
  return plan;
}

class ChaosFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFuzz, DropPolicyMatchesSanitizedReference) {
  const uint64_t seed = GetParam();
  const FaultPlan plan = RandomPlan(seed);
  SCOPED_TRACE(plan.ToString());

  AuctionSpec aspec;
  aspec.num_bids = 300;
  aspec.open_window = 6;
  aspec.close_mean_interarrival_bids = 15.0;
  AuctionStreams streams = GenerateAuction(aspec, seed);

  auto injector = std::make_shared<FaultInjector>(plan.seed);
  PerturbedStream pa =
      PerturbStream(streams.open, 0, plan.stream[0], injector.get());
  PerturbedStream pb =
      PerturbStream(streams.bid, 0, plan.stream[1], injector.get());

  // Spill stores: faulty substrate wrapped in the recovering decorator; keep
  // raw pointers for post-run assertions.
  std::vector<FaultySpillStore*> faulty_stores;
  std::vector<RecoveringSpillStore*> recovering_stores;
  int64_t io_error_events = 0;
  int64_t degraded_events = 0;
  auto sink = [&](const Event& e) {
    if (e.type == EventType::kIoError) ++io_error_events;
    if (e.type == EventType::kDegradedMode) ++degraded_events;
  };

  JoinOptions opts;
  Rng cfg_rng(seed ^ 0xC4405);
  opts.violation_policy = ViolationPolicy::kDrop;
  opts.runtime.purge_threshold =
      1 + static_cast<int64_t>(cfg_rng.NextBounded(8));
  opts.runtime.memory_threshold_tuples =
      8 + static_cast<int64_t>(cfg_rng.NextBounded(32));
  opts.runtime.propagate_count_threshold =
      cfg_rng.NextBool(0.5) ? 1 + static_cast<int64_t>(cfg_rng.NextBounded(6))
                            : 0;
  opts.eager_index_build = cfg_rng.NextBool(0.5);
  // Tight split bound so recursive repartitioning triggers under the small
  // memory caps above (and meets the repartition-phase faults injected by
  // the plan).
  opts.spill_policy.repartition_record_bound =
      8 + static_cast<int64_t>(cfg_rng.NextBounded(24));
  int64_t spill_degraded_events = 0;
  opts.spill_event_sink = [&](const Event& e) {
    if (e.type == EventType::kDegradedMode) ++spill_degraded_events;
  };
  opts.spill_factory = [&]() -> std::unique_ptr<SpillStore> {
    auto faulty = std::make_unique<FaultySpillStore>(
        std::make_unique<SimulatedDisk>(), plan.io, injector);
    faulty_stores.push_back(faulty.get());
    RecoveryOptions ropts;
    ropts.max_retries = 8;
    auto recovering = std::make_unique<RecoveringSpillStore>(
        std::move(faulty), ropts, sink);
    recovering_stores.push_back(recovering.get());
    return recovering;
  };

  PJoin join(streams.open_schema, streams.bid_schema, opts);
  int64_t violation_events = 0;
  class ViolationCounter : public EventListener {
   public:
    explicit ViolationCounter(int64_t* count) : count_(count) {}
    std::string_view name() const override { return "chaos-counter"; }
    Status HandleEvent(const Event&) override {
      ++*count_;
      return Status::OK();
    }

   private:
    int64_t* count_;
  } counter(&violation_events);
  join.registry().Register(EventType::kContractViolation, &counter);

  std::vector<std::string> rows;
  join.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });
  PipelineOptions popts;
  popts.stall_gap_micros = 3000;
  JoinPipeline pipe(&join, nullptr, popts);
  ASSERT_TRUE(pipe.Run(pa.faulty, pb.faulty).ok());
  std::sort(rows.begin(), rows.end());

  // The oracle: kDrop output over the faulty streams == reference over the
  // sanitized streams.
  EXPECT_EQ(rows, ReferenceJoinRows(pa.sanitized, pb.sanitized,
                                    join.output_schema(), 0, 0));

  // Every injected violation was detected, counted, and dispatched.
  EXPECT_EQ(join.contract_violations(), pa.violations + pb.violations);
  EXPECT_EQ(violation_events, pa.violations + pb.violations);

  // I/O accounting: each observed error raised one IoErrorEvent.
  int64_t io_errors = 0;
  bool any_degraded = false;
  for (const RecoveringSpillStore* store : recovering_stores) {
    io_errors += store->recovery_stats().io_errors;
    any_degraded |= store->degraded();
    EXPECT_EQ(store->recovery_stats().records_lost, 0);
  }
  EXPECT_EQ(io_error_events, io_errors);
  // A tripped permanent write failure must have forced the fallback.
  for (size_t i = 0; i < faulty_stores.size(); ++i) {
    if (faulty_stores[i]->write_failed_permanently()) {
      EXPECT_TRUE(recovering_stores[i]->degraded());
      EXPECT_EQ(recovering_stores[i]->recovery_stats().fallbacks, 1);
    }
  }
  if (!any_degraded) {
    EXPECT_EQ(degraded_events, 0);
  }
  // The spill manager's fallback is observable iff it reported degradation.
  EXPECT_EQ(spill_degraded_events > 0, join.spill_stats().degraded);
}

INSTANTIATE_TEST_SUITE_P(Plans, ChaosFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace pjoin

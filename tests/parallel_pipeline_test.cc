// Equivalence tests for the partition-parallel pipeline: for every shard
// count the merged parallel output multiset must equal the single-threaded
// reference, across operators (PJoin / XJoin), seeds, punctuation styles
// and densities, and key skews — and no released punctuation may precede a
// result it covers (§3.3).

#include "ops/parallel_pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "join/xjoin.h"
#include "obs/metrics_registry.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KeyPunct;
using testing::KP;
using testing::KeyPayloadSchema;
using testing::ReferenceJoinRows;
using testing::ReleaseOrderChecker;
using testing::RunJoin;
using testing::RunResult;

enum class Operator { kPJoin, kXJoin };

JoinOptions SmallStateOptions() {
  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.purge_threshold = 1;
  opts.runtime.memory_threshold_tuples = 64;
  opts.runtime.propagate_count_threshold = 1;
  return opts;
}

std::unique_ptr<JoinOperator> MakeJoin(Operator op, const SchemaPtr& left,
                                       const SchemaPtr& right,
                                       const JoinOptions& opts) {
  if (op == Operator::kPJoin) {
    return std::make_unique<PJoin>(left, right, opts);
  }
  return std::make_unique<XJoin>(left, right, opts);
}

/// Runs the parallel pipeline and returns the merged output in RunJoin's
/// canonicalization (sorted result rows + punctuations in emission order),
/// checking §3.3 on the merged output stream.
RunResult RunParallel(Operator op, const SchemaPtr& left_schema,
                      const SchemaPtr& right_schema, const JoinOptions& jopts,
                      const std::vector<StreamElement>& left,
                      const std::vector<StreamElement>& right,
                      ParallelPipelineOptions popts,
                      ParallelJoinPipeline** out_pipeline = nullptr) {
  static std::unique_ptr<ParallelJoinPipeline> last;  // keep alive for caller
  last = std::make_unique<ParallelJoinPipeline>(
      [&](int) { return MakeJoin(op, left_schema, right_schema, jopts); },
      popts);
  RunResult out;
  ReleaseOrderChecker order;
  last->set_result_callback([&out, &order](const Tuple& t) {
    out.results.push_back(t.ToString());
    order.OnResult(t);
  });
  last->set_punct_callback([&out, &order](const Punctuation& p) {
    out.punctuations.push_back(p);
    order.OnPunct(p);
  });
  const Status st = last->Run(left, right);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(order.violations(), 0)
      << "results emitted after a released punctuation covering them";
  out.stalls = last->stalls_reported();
  std::sort(out.results.begin(), out.results.end());
  if (out_pipeline != nullptr) *out_pipeline = last.get();
  return out;
}

std::vector<std::string> SortedPunctStrings(const RunResult& r) {
  std::vector<std::string> out;
  out.reserve(r.punctuations.size());
  for (const Punctuation& p : r.punctuations) out.push_back(p.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

struct Workload {
  std::string name;
  GeneratedStreams streams;
};

/// Stream A draws its keys at zipf exponent `zipf_s`, stream B at `zipf_b`
/// (the same as A when negative).
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      double punct_rate, double zipf_s,
                      PunctStyle style = PunctStyle::kConstant,
                      double zipf_b = -1.0) {
  DomainSpec domain;
  domain.window_size = 16;
  StreamSpec spec;
  spec.num_tuples = 1200;
  spec.punct_mean_interarrival_tuples = punct_rate;
  spec.punct_style = style;
  spec.punct_batch = style == PunctStyle::kConstant ? 1 : 4;
  spec.zipf_s = zipf_s;
  spec.flush_punctuations_at_end = true;
  StreamSpec spec_b = spec;
  if (zipf_b >= 0.0) spec_b.zipf_s = zipf_b;
  return Workload{name, GenerateStreams(domain, spec, spec_b, seed)};
}

/// The perfbench `skew` shape: stream A at zipf 1.6, stream B uniform.
Workload SkewWorkload(uint64_t seed) {
  return MakeWorkload("skew", seed, /*punct_rate=*/20.0, /*zipf_s=*/1.6,
                      PunctStyle::kConstant, /*zipf_b=*/0.0);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<Operator> {};

// Range and enum-list punctuations broadcast, and a left and a right
// punctuation over the same keys share one output string: their rounds
// must be credited per shard, or a fast shard's two releases emit the
// punctuation while a slow shard still holds covered results.
TEST_P(ParallelEquivalenceTest, MatchesReferenceAcrossSeedsAndShards) {
  const Operator op = GetParam();
  for (const PunctStyle style :
       {PunctStyle::kConstant, PunctStyle::kRange, PunctStyle::kEnumList}) {
    for (const uint64_t seed : {7u, 21u, 1234u}) {
      Workload w = MakeWorkload("uniform", seed, /*punct_rate=*/25.0,
                                /*zipf_s=*/0.0, style);
      const std::vector<std::string> reference = ReferenceJoinRows(
          w.streams.a, w.streams.b,
          MakeJoin(op, w.streams.schema_a, w.streams.schema_b, JoinOptions())
              ->output_schema(),
          0, 0);
      const JoinOptions jopts = SmallStateOptions();
      for (const int shards : {1, 2, 4}) {
        SCOPED_TRACE("style=" + std::to_string(static_cast<int>(style)) +
                     " seed=" + std::to_string(seed) +
                     " shards=" + std::to_string(shards));
        ParallelPipelineOptions popts;
        popts.num_shards = shards;
        popts.batch_size = 64;
        const RunResult got =
            RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                        w.streams.a, w.streams.b, popts);
        EXPECT_EQ(got.results, reference);
      }
    }
  }
}

TEST_P(ParallelEquivalenceTest, PunctuationHeavyWorkload) {
  const Operator op = GetParam();
  Workload w = MakeWorkload("punct-heavy", /*seed=*/99,
                            /*punct_rate=*/4.0, /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  // Single-threaded reference through the same operator configuration.
  auto ref_join =
      MakeJoin(op, w.streams.schema_a, w.streams.schema_b, jopts);
  const RunResult ref = RunJoin(ref_join.get(), w.streams.a, w.streams.b);
  for (const int shards : {2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    const RunResult got =
        RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                    w.streams.a, w.streams.b, popts);
    EXPECT_EQ(got.results, ref.results) << "shards=" << shards;
  }
}

// The skew oracle: every key stays with its static owner however hot it
// is, so the busiest shard gets the celebrity key's whole share, and the
// results and released punctuations still match the references.
TEST_P(ParallelEquivalenceTest, SkewedWorkload) {
  const Operator op = GetParam();
  Workload w = SkewWorkload(/*seed=*/5150);
  const std::vector<std::string> reference = ReferenceJoinRows(
      w.streams.a, w.streams.b,
      MakeJoin(op, w.streams.schema_a, w.streams.schema_b, JoinOptions())
          ->output_schema(),
      0, 0);
  const JoinOptions jopts = SmallStateOptions();
  auto ref_join = MakeJoin(op, w.streams.schema_a, w.streams.schema_b, jopts);
  const RunResult ref = RunJoin(ref_join.get(), w.streams.a, w.streams.b);
  for (const int shards : {1, 2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    const RunResult got =
        RunParallel(op, w.streams.schema_a, w.streams.schema_b, jopts,
                    w.streams.a, w.streams.b, popts);
    EXPECT_EQ(got.results, reference) << "shards=" << shards;
    EXPECT_EQ(SortedPunctStrings(got), SortedPunctStrings(ref))
        << "shards=" << shards;
  }
}

TEST_P(ParallelEquivalenceTest, ScanAndIndexedProbeAgree) {
  const Operator op = GetParam();
  Workload w = MakeWorkload("probe-mode", /*seed=*/31, /*punct_rate=*/30.0,
                            /*zipf_s=*/0.5);
  JoinOptions indexed = SmallStateOptions();
  JoinOptions scan = SmallStateOptions();
  scan.indexed_probe = false;
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  const RunResult with_index =
      RunParallel(op, w.streams.schema_a, w.streams.schema_b, indexed,
                  w.streams.a, w.streams.b, popts);
  const RunResult with_scan =
      RunParallel(op, w.streams.schema_a, w.streams.schema_b, scan,
                  w.streams.a, w.streams.b, popts);
  EXPECT_EQ(with_index.results, with_scan.results);
}

INSTANTIATE_TEST_SUITE_P(Operators, ParallelEquivalenceTest,
                         ::testing::Values(Operator::kPJoin, Operator::kXJoin),
                         [](const ::testing::TestParamInfo<Operator>& info) {
                           return info.param == Operator::kPJoin ? "PJoin"
                                                                 : "XJoin";
                         });

// ---- Key placement ----

TEST(OwnerOfTest, StaticMappingIsStableAndInRange) {
  for (uint64_t h = 0; h < 1000; ++h) {
    const int shard = ParallelJoinPipeline::OwnerOf(h, 4);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, ParallelJoinPipeline::OwnerOf(h, 4))
        << "must be deterministic";
  }
}

// ---- PJoin-specific: punctuations and purge behavior ----

TEST(ParallelPJoinTest, PunctuationsReleasedOnceAndAfterCoveredResults) {
  const SchemaPtr schema = KeyPayloadSchema();
  ElementsBuilder left, right;
  for (int64_t k = 0; k < 6; ++k) {
    left.Tup(KP(schema, k, 10 + k)).Tup(KP(schema, k, 20 + k));
    right.Tup(KP(schema, k, 30 + k));
    left.Punct(KeyPunct(k));
    right.Punct(KeyPunct(k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  JoinOptions jopts = SmallStateOptions();
  auto ref_join = std::make_unique<PJoin>(schema, schema, jopts);
  const RunResult ref = RunJoin(ref_join.get(), l, r);

  for (const int shards : {1, 2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    popts.batch_size = 4;
    ParallelJoinPipeline* pipeline = nullptr;
    const RunResult got = RunParallel(Operator::kPJoin, schema, schema, jopts,
                                      l, r, popts, &pipeline);
    EXPECT_EQ(got.results, ref.results) << "shards=" << shards;
    // The merge board must deduplicate the N shard-local emissions of each
    // output punctuation down to the single-threaded multiset.
    EXPECT_EQ(SortedPunctStrings(got), SortedPunctStrings(ref))
        << "shards=" << shards;
    // Every shard fully purged its state: all keys were punctuated on both
    // sides, so no shard may retain tuples the reference would have dropped.
    int64_t state = 0;
    for (const ShardStats& s : pipeline->shard_stats()) {
      state += s.state_tuples;
    }
    EXPECT_EQ(state, ref_join->total_state_tuples()) << "shards=" << shards;
  }
}

// The repartition options are ignored: with perfbench's `skew` settings the
// run is the static run, and the accessors the benchmark reads stay 0.
TEST(ParallelPJoinTest, RepartitionPolicyIsIgnored) {
  Workload w = SkewWorkload(/*seed=*/1);
  const JoinOptions jopts = SmallStateOptions();
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  popts.shard_queue_capacity = 16;
  ParallelJoinPipeline* pipeline = nullptr;
  const RunResult static_run =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  const std::vector<ShardStats> static_stats = pipeline->shard_stats();

  popts.repartition.enabled = true;
  popts.repartition.imbalance_trigger = 1.15;
  const RunResult got =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  EXPECT_EQ(got.results, static_run.results);
  EXPECT_EQ(SortedPunctStrings(got), SortedPunctStrings(static_run));
  ASSERT_EQ(pipeline->shard_stats().size(), static_stats.size());
  for (size_t i = 0; i < static_stats.size(); ++i) {
    // Stall counts follow thread timing; everything else the input fixes.
    const ShardStats& a = pipeline->shard_stats()[i];
    const ShardStats& b = static_stats[i];
    EXPECT_EQ(a.elements, b.elements) << "shard " << i;
    EXPECT_EQ(a.tuples, b.tuples) << "shard " << i;
    EXPECT_EQ(a.results, b.results) << "shard " << i;
    EXPECT_EQ(a.puncts_emitted, b.puncts_emitted) << "shard " << i;
    EXPECT_EQ(a.state_tuples, b.state_tuples) << "shard " << i;
  }
  EXPECT_EQ(pipeline->handoffs_started(), 0);
  EXPECT_EQ(pipeline->migrations_completed(), 0);
  EXPECT_EQ(pipeline->migration_rollbacks(), 0);
  EXPECT_EQ(pipeline->hot_keys_active(), 0);
}

TEST(ParallelPJoinTest, ShardStatsCoverAllRoutedElements) {
  Workload w = MakeWorkload("stats", /*seed=*/8, /*punct_rate=*/20.0,
                            /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  ParallelJoinPipeline* pipeline = nullptr;
  const RunResult got =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  (void)got;
  // Data tuples and constant-key punctuations are routed to exactly one
  // shard; non-constant punctuations and the two end-of-stream markers are
  // broadcast to every shard.
  int64_t expected_elements = 2 * popts.num_shards;  // the EOS broadcasts
  for (const auto* stream : {&w.streams.a, &w.streams.b}) {
    for (const StreamElement& e : *stream) {
      if (e.is_tuple()) {
        ++expected_elements;
      } else if (e.is_punctuation()) {
        expected_elements += e.punctuation().pattern(0).IsConstant()
                                 ? 1
                                 : popts.num_shards;
      }
    }
  }
  int64_t elements = 0;
  int64_t tuples = 0;
  int64_t results = 0;
  for (const ShardStats& s : pipeline->shard_stats()) {
    elements += s.elements;
    tuples += s.tuples;
    results += s.results;
  }
  EXPECT_EQ(elements, expected_elements);
  EXPECT_EQ(tuples, w.streams.NumTuples(w.streams.a) +
                        w.streams.NumTuples(w.streams.b));
  // The merged output saw every shard-emitted result exactly once.
  EXPECT_EQ(results, pipeline->results_emitted());
}

// A shard's join error is the run's outcome: the failed shard keeps draining
// its ring so the router never wedges, and Run returns the error once every
// thread has finished.
TEST(ParallelPJoinTest, ShardErrorIsTheRunStatus) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions jopts = SmallStateOptions();
  jopts.violation_policy = ViolationPolicy::kFail;
  // Key 1 arrives after its own punctuation: a contract violation that makes
  // the owning shard fail with FailedPrecondition under kFail.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(KeyPunct(1))
                  .Tup(KP(sa, 1, 2))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10).Tup(KP(sb, 1, 9)).Finish();

  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(sa, sb, jopts); }, popts);
  const Status st = pipeline.Run(left, right);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

// Shards finish on end-of-stream, so Run refuses, before it starts a
// thread, an input that lacks one or carries elements after it.
TEST(ParallelPJoinTest, InputWithoutEndOfStreamIsRejected) {
  SchemaPtr s = KeyPayloadSchema("a");
  const std::vector<StreamElement> complete =
      ElementsBuilder().Tup(KP(s, 1, 9)).Finish();
  std::vector<StreamElement> unterminated =
      ElementsBuilder().Tup(KP(s, 1, 0)).Tup(KP(s, 2, 1)).Finish();
  unterminated.pop_back();
  std::vector<StreamElement> trailing =
      ElementsBuilder().Tup(KP(s, 1, 0)).Finish();
  trailing.push_back(StreamElement::MakeTuple(KP(s, 1, 1), 5000));

  auto run = [&](const std::vector<StreamElement>& left,
                 const std::vector<StreamElement>& right) {
    ParallelPipelineOptions popts;
    popts.num_shards = 2;
    ParallelJoinPipeline pipeline(
        [&](int) { return std::make_unique<PJoin>(s, s); }, popts);
    return pipeline.Run(left, right);
  };
  for (const auto* input : {&unterminated, &trailing}) {
    EXPECT_EQ(run(*input, complete).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(run(complete, *input).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(run({}, complete).code(), StatusCode::kInvalidArgument);
}

/// A PJoin that sleeps on every tuple, so its shard consumes slower than
/// the router dispatches.
class SlowPJoin : public PJoin {
 public:
  using PJoin::PJoin;

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }
};

// With a shard ring of two one-element batches and a slow shard, the router
// must repeatedly find the ring full (backpressure), and the result must
// still be exact.
TEST(ParallelPJoinTest, BoundedRingsApplyBackpressure) {
  DomainSpec domain;
  domain.window_size = 8;
  StreamSpec spec;
  spec.num_tuples = 400;
  spec.punct_mean_interarrival_tuples = 12;
  const GeneratedStreams g = GenerateStreams(domain, spec, spec, /*seed=*/7);
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  popts.batch_size = 1;
  popts.shard_queue_capacity = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<SlowPJoin>(g.schema_a, g.schema_b); },
      popts);
  std::vector<std::string> rows;
  pipeline.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });
  ASSERT_TRUE(pipeline.Run(g.a, g.b).ok());
  EXPECT_GT(pipeline.router_backpressure_waits(), 0);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, ReferenceJoinRows(g.a, g.b,
                                    pipeline.shard_join(0)->output_schema(),
                                    0, 0));
}

TEST(ParallelPJoinTest, SingleShardMatchesReferenceState) {
  Workload w = MakeWorkload("one-shard", /*seed=*/77, /*punct_rate=*/15.0,
                            /*zipf_s=*/0.0);
  const JoinOptions jopts = SmallStateOptions();
  auto ref_join =
      std::make_unique<PJoin>(w.streams.schema_a, w.streams.schema_b, jopts);
  const RunResult ref = RunJoin(ref_join.get(), w.streams.a, w.streams.b);

  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  ParallelJoinPipeline* pipeline = nullptr;
  const RunResult got =
      RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
                  jopts, w.streams.a, w.streams.b, popts, &pipeline);
  EXPECT_EQ(got.results, ref.results);
  // One shard sees the exact single-threaded element sequence, so the final
  // state must match the reference join's exactly.
  EXPECT_EQ(pipeline->shard_join(0)->total_state_tuples(),
            ref_join->total_state_tuples());
}

// Result rows copy Values of every kind across the spine, not only int64:
// here a join key long enough that its string lives on the heap, and a
// double payload on each side.
TEST(ParallelPJoinTest, StringKeysAndDoublePayloadsMatchReference) {
  const SchemaPtr left_schema = Schema::Make(
      {{"key", ValueType::kString}, {"price", ValueType::kFloat64}});
  const SchemaPtr right_schema = Schema::Make(
      {{"key", ValueType::kString}, {"weight", ValueType::kFloat64}});
  auto key = [](int64_t k) {
    return Value("customer-account-" + std::to_string(k));
  };
  // Keys come from a window of 8 that slides every 25 tuples; a key that
  // leaves the window is punctuated on both sides, and never seen again.
  Rng rng(/*seed=*/2024);
  ElementsBuilder left;
  ElementsBuilder right;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t base = i / 25;
    if (i > 0 && i % 25 == 0) {
      const Punctuation done =
          Punctuation::ForAttribute(2, 0, Pattern::Constant(key(base - 1)));
      left.Punct(done);
      right.Punct(done);
    }
    left.Tup(Tuple(left_schema, {key(base + rng.NextInt(0, 7)),
                                 Value(rng.NextDouble() * 100.0)}));
    right.Tup(Tuple(right_schema,
                    {key(base + rng.NextInt(0, 7)), Value(rng.NextDouble())}));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();
  ASSERT_GT(l.front().tuple().field(0).AsString().size(), 15u);

  const JoinOptions jopts = SmallStateOptions();
  auto ref_join = std::make_unique<PJoin>(left_schema, right_schema, jopts);
  const RunResult ref = RunJoin(ref_join.get(), l, r);
  ASSERT_EQ(ref.results,
            ReferenceJoinRows(l, r, ref_join->output_schema(), 0, 0));
  ASSERT_GT(ref.results.size(), 1000u);
  for (const int shards : {1, 2, 4}) {
    ParallelPipelineOptions popts;
    popts.num_shards = shards;
    popts.batch_size = 32;
    const RunResult got = RunParallel(Operator::kPJoin, left_schema,
                                      right_schema, jopts, l, r, popts);
    EXPECT_EQ(got.results, ref.results) << "shards=" << shards;
    EXPECT_EQ(SortedPunctStrings(got), SortedPunctStrings(ref))
        << "shards=" << shards;
  }
}

// A shard observes pjoin_tuple_latency_seconds with one clock read per
// batch or stall pass, weighted by the results it emitted: every result is
// still counted exactly once.
TEST(ParallelPJoinTest, LatencyHistogramCountsEveryResultOnce) {
  Workload w = MakeWorkload("latency", /*seed=*/12, /*punct_rate=*/20.0,
                            /*zipf_s=*/0.0);
  // The registry is process-wide and other cases bind the same cells, so
  // compare the counts' growth over this run.
  auto latency_count = [] {
    int64_t count = 0;
    for (int s = 0; s < 2; ++s) {
      count += obs::MetricsRegistry::Global()
                   .GetHistogram("pjoin_tuple_latency_seconds",
                                 "pipeline=parallel,shard=" +
                                     std::to_string(s),
                                 /*unit_scale=*/1e-6)
                   .Count();
    }
    return count;
  };
  const int64_t before = latency_count();
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline* pipeline = nullptr;
  RunParallel(Operator::kPJoin, w.streams.schema_a, w.streams.schema_b,
              SmallStateOptions(), w.streams.a, w.streams.b, popts, &pipeline);
  int64_t shard_results = 0;
  for (int s = 0; s < 2; ++s) {
    shard_results += pipeline->shard_join(s)->results_emitted();
  }
  EXPECT_GT(pipeline->results_emitted(), 0);
  EXPECT_EQ(shard_results, pipeline->results_emitted());
  EXPECT_EQ(latency_count() - before, pipeline->results_emitted());
}

}  // namespace
}  // namespace pjoin

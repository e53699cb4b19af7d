// The library's central correctness property (DESIGN.md invariant 1):
// for any generated punctuated input, SHJ, XJoin (any memory threshold) and
// PJoin (any purge / propagation configuration) produce exactly the
// reference nested-loop result multiset — no missing pairs, no duplicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "gen/stream_generator.h"
#include "join/nlj.h"
#include "join/pjoin.h"
#include "join/shj.h"
#include "join/xjoin.h"
#include "storage/file_spill_store.h"
#include "storage/spill_manager.h"
#include "stream/arrival_merge.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ReferenceJoinRows;
using testing::RunJoin;

struct Scenario {
  int64_t num_tuples;
  double punct_a;
  double punct_b;
  int64_t window;
  PunctStyle style;
  uint64_t seed;
  bool clustered = false;
  double zipf_s = 0.0;
};

GeneratedStreams Generate(const Scenario& sc) {
  DomainSpec d;
  d.window_size = sc.window;
  StreamSpec a;
  a.num_tuples = sc.num_tuples;
  a.punct_mean_interarrival_tuples = sc.punct_a;
  a.punct_style = sc.style;
  a.punct_batch = sc.style == PunctStyle::kConstant ? 1 : 3;
  a.clustered = sc.clustered;
  a.zipf_s = sc.zipf_s;
  StreamSpec b = a;
  b.punct_mean_interarrival_tuples = sc.punct_b;
  return GenerateStreams(d, a, b, sc.seed);
}

class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int64_t, int64_t>> {};

TEST_P(EquivalenceSweep, AllJoinsMatchReference) {
  const auto [scenario_idx, purge_threshold, memory_threshold] = GetParam();
  static const Scenario kScenarios[] = {
      // symmetric, constant punctuations
      {400, 10, 10, 8, PunctStyle::kConstant, 101},
      // asymmetric rates
      {400, 10, 40, 8, PunctStyle::kConstant, 202},
      // range punctuations
      {400, 15, 15, 10, PunctStyle::kRange, 303},
      // enum punctuations, sparse
      {400, 30, 30, 6, PunctStyle::kEnumList, 404},
      // clustered (k-constraint) arrival
      {400, 12, 12, 8, PunctStyle::kConstant, 505, /*clustered=*/true},
      // Zipf-skewed keys
      {400, 12, 12, 8, PunctStyle::kConstant, 606, /*clustered=*/false,
       /*zipf_s=*/1.2},
  };
  const Scenario& sc = kScenarios[scenario_idx];
  GeneratedStreams g = Generate(sc);

  // Reference.
  SymmetricHashJoin shj(g.schema_a, g.schema_b);
  auto shj_run = RunJoin(&shj, g.a, g.b);
  auto reference =
      ReferenceJoinRows(g.a, g.b, shj.output_schema(), 0, 0);
  ASSERT_EQ(shj_run.results, reference);

  // XJoin under the same memory threshold.
  {
    JoinOptions opts;
    opts.runtime.memory_threshold_tuples = memory_threshold;
    XJoin join(g.schema_a, g.schema_b, opts);
    auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/9000);
    EXPECT_EQ(run.results, reference) << "XJoin mem=" << memory_threshold;
  }

  // PJoin across purge thresholds, memory thresholds, both index modes.
  for (bool eager_index : {false, true}) {
    JoinOptions opts;
    opts.runtime.purge_threshold = purge_threshold;
    opts.runtime.memory_threshold_tuples = memory_threshold;
    opts.runtime.propagate_count_threshold = 5;
    opts.eager_index_build = eager_index;
    PJoin join(g.schema_a, g.schema_b, opts);
    auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/9000);
    EXPECT_EQ(run.results, reference)
        << "PJoin purge=" << purge_threshold << " mem=" << memory_threshold
        << " eager_index=" << eager_index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, EquivalenceSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),  // scenario
                       ::testing::Values(1, 7, 50),       // purge threshold
                       ::testing::Values(16, 1000000)));  // memory threshold

// The nested-loop join is the oracle other tests trust: it must agree with
// the test utility's reference and, being blocking, emit only at Finish.
TEST(NestedLoopReferenceTest, MatchesTestUtilReference) {
  GeneratedStreams g =
      Generate(Scenario{300, 10, 10, 20, PunctStyle::kConstant, 9});
  NestedLoopReferenceJoin nlj(g.schema_a, g.schema_b);
  auto run = RunJoin(&nlj, g.a, g.b);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, nlj.output_schema(), 0, 0));
}

TEST(NestedLoopReferenceTest, EmitsOnlyAtFinish) {
  SchemaPtr sa = testing::KeyPayloadSchema("a");
  SchemaPtr sb = testing::KeyPayloadSchema("b");
  NestedLoopReferenceJoin nlj(sa, sb);
  int64_t results = 0;
  nlj.set_result_callback([&results](const Tuple&) { ++results; });
  ASSERT_TRUE(
      nlj.OnElement(0, StreamElement::MakeTuple(testing::KP(sa, 1, 1), 1))
          .ok());
  ASSERT_TRUE(
      nlj.OnElement(1, StreamElement::MakeTuple(testing::KP(sb, 1, 2), 2))
          .ok());
  EXPECT_EQ(results, 0);  // blocking: nothing until both EOS
  ASSERT_TRUE(nlj.OnElement(0, StreamElement::MakeEndOfStream(3)).ok());
  ASSERT_TRUE(nlj.OnElement(1, StreamElement::MakeEndOfStream(3)).ok());
  EXPECT_EQ(results, 1);
}

TEST(EquivalenceTest, PJoinWithoutOtfDropMatchesReference) {
  Scenario sc{400, 10, 20, 8, PunctStyle::kConstant, 707};
  GeneratedStreams g = Generate(sc);
  JoinOptions opts;
  opts.drop_on_the_fly = false;
  opts.runtime.memory_threshold_tuples = 32;
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

TEST(EquivalenceTest, PJoinIndexedPurgeMatchesReference) {
  Scenario sc{400, 8, 8, 8, PunctStyle::kConstant, 808};
  GeneratedStreams g = Generate(sc);
  JoinOptions opts;
  opts.purge_mode = PurgeMode::kIndexed;
  opts.runtime.memory_threshold_tuples = 24;
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/9000);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

TEST(EquivalenceTest, PJoinWithFileSpillMatchesReference) {
  Scenario sc{300, 10, 10, 8, PunctStyle::kConstant, 909};
  GeneratedStreams g = Generate(sc);
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 16;
  int file_counter = 0;
  opts.spill_factory = [&file_counter]() -> std::unique_ptr<SpillStore> {
    auto store = FileSpillStore::Open("/tmp/pjoin_equiv_spill_" +
                                      std::to_string(file_counter++) +
                                      ".bin");
    PJOIN_DCHECK(store.ok());
    return std::move(store).value();
  };
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/9000);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

TEST(EquivalenceTest, StringKeyedJoinWithPunctuations) {
  // Keys are strings; punctuations use constant and range string patterns.
  SchemaPtr sa = Schema::Make(
      {{"key", ValueType::kString}, {"a", ValueType::kInt64}});
  SchemaPtr sb = Schema::Make(
      {{"key", ValueType::kString}, {"b", ValueType::kInt64}});
  Rng rng(31337);
  const char* keys[] = {"alpha", "bravo", "charlie", "delta", "echo"};
  auto make_stream = [&](const SchemaPtr& schema) {
    std::vector<StreamElement> out;
    TimeMicros now = 0;
    int64_t seq = 0;
    for (int i = 0; i < 120; ++i) {
      now += 1000;
      out.push_back(StreamElement::MakeTuple(
          Tuple(schema, {Value(std::string(keys[rng.NextBounded(5)])),
                         Value(static_cast<int64_t>(i))}),
          now, seq++));
    }
    // Punctuate a constant and a range of keys at the end (sound: no
    // tuples follow).
    out.push_back(StreamElement::MakePunctuation(
        Punctuation::ForAttribute(2, 0,
                                  Pattern::Constant(Value("alpha"))),
        now, seq++));
    out.push_back(StreamElement::MakePunctuation(
        Punctuation::ForAttribute(
            2, 0, Pattern::Range(Value("bravo"), Value("delta"))),
        now, seq++));
    out.push_back(StreamElement::MakeEndOfStream(now, seq++));
    return out;
  };
  auto left = make_stream(sa);
  auto right = make_stream(sb);

  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 24;
  opts.runtime.propagate_count_threshold = 1;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, right, /*stall_gap=*/5000);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
  // All keys except "echo" are punctuated on both sides; with the final
  // propagation, those punctuations must come out.
  EXPECT_GE(run.punctuations.size(), 2u);
  EXPECT_GT(join.counters().Get("purged_tuples") +
                join.counters().Get("disk_purged_tuples"),
            0);
}

TEST(EquivalenceTest, HeavySpillTinyMemory) {
  // Pathological: memory threshold of 2 tuples forces constant relocation.
  Scenario sc{200, 10, 10, 6, PunctStyle::kConstant, 111};
  GeneratedStreams g = Generate(sc);
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 2;
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/6000);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

// The two ways into a join — OnElement per element, and ProcessBatch over
// router-style batches carrying precomputed key hashes — must be
// indistinguishable at every batch size: same results in the same order,
// same released punctuations, same counters and the same per-element state
// series.
TEST(EquivalenceTest, BatchedAndElementDispatchAgree) {
  Scenario sc{400, 12, 12, 8, PunctStyle::kConstant, 77, /*clustered=*/false,
              /*zipf_s=*/0.8};
  GeneratedStreams g = Generate(sc);
  // Both streams merged in arrival order, ties to the left, each tuple with
  // its join-key hash: what the parallel pipeline's router hands a shard.
  std::vector<const StreamElement*> elements;
  std::vector<int8_t> sides;
  std::vector<uint64_t> hashes;
  for (ArrivalMerge merge(g.a, g.b); !merge.done();) {
    const auto [side, e] = merge.Next();
    elements.push_back(e);
    sides.push_back(static_cast<int8_t>(side));
    hashes.push_back(e->is_tuple() ? e->tuple().field(0).Hash() : 0);
  }

  struct Observed {
    std::vector<std::string> results;
    std::vector<std::string> puncts;
    std::map<std::string, int64_t> counters;
    SpillDecisionStats spill;
    std::vector<std::pair<TimeMicros, int64_t>> state_series;
  };
  // batch_size 0 feeds every element through OnElement.
  auto run = [&](JoinOperator* join, size_t batch_size) {
    Observed out;
    join->set_result_callback(
        [&out](const Tuple& t) { out.results.push_back(t.ToString()); });
    join->set_punct_callback(
        [&out](const Punctuation& p) { out.puncts.push_back(p.ToString()); });
    for (size_t i = 0; i < elements.size();) {
      Status st;
      if (batch_size == 0) {
        st = join->OnElement(sides[i], *elements[i]);
        ++i;
      } else {
        const size_t n = std::min(batch_size, elements.size() - i);
        st = join->ProcessBatch(
            ElementBatch{&elements[i], &sides[i], &hashes[i], n});
        i += n;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    out.counters = join->counters().counters();
    out.spill = join->spill_stats();
    for (const Sample& s : join->state_series().samples()) {
      out.state_series.emplace_back(s.time, s.value);
    }
    return out;
  };

  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 64;
  opts.runtime.propagate_count_threshold = 1;
  opts.state_sample_interval = 1;
  for (const bool use_pjoin : {true, false}) {
    auto make = [&]() -> std::unique_ptr<JoinOperator> {
      if (use_pjoin) {
        return std::make_unique<PJoin>(g.schema_a, g.schema_b, opts);
      }
      return std::make_unique<XJoin>(g.schema_a, g.schema_b, opts);
    };
    const auto element_join = make();
    const Observed via_element = run(element_join.get(), 0);
    ASSERT_FALSE(via_element.results.empty());
    ASSERT_FALSE(via_element.state_series.empty());
    ASSERT_GT(via_element.spill.spills, 0);
    for (const size_t batch_size : {1, 7, 256}) {
      const auto batch_join = make();
      const Observed via_batch = run(batch_join.get(), batch_size);
      const std::string where = std::string(use_pjoin ? "PJoin" : "XJoin") +
                                " batch=" + std::to_string(batch_size);
      EXPECT_EQ(via_batch.results, via_element.results) << where;
      EXPECT_EQ(via_batch.puncts, via_element.puncts) << where;
      EXPECT_EQ(via_batch.counters, via_element.counters) << where;
      EXPECT_EQ(via_batch.spill, via_element.spill) << where;
      EXPECT_EQ(via_batch.state_series, via_element.state_series) << where;
    }
  }
}

}  // namespace
}  // namespace pjoin

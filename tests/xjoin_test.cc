#include <gtest/gtest.h>

#include "gen/stream_generator.h"
#include "join/xjoin.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KeyPayloadSchema;
using testing::KP;
using testing::ReferenceJoinRows;
using testing::RunJoin;

JoinOptions WithMemoryThreshold(int64_t threshold) {
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = threshold;
  return opts;
}

TEST(XJoinTest, NoSpillBehavesLikeShj) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 1))
                  .Tup(KP(sa, 2, 2))
                  .Tup(KP(sa, 1, 3))
                  .Finish();
  auto right = ElementsBuilder()
                   .Tup(KP(sb, 1, 4))
                   .Tup(KP(sb, 2, 5))
                   .Finish();
  XJoin join(sa, sb);
  auto run = RunJoin(&join, left, right);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
  EXPECT_EQ(join.spill_stats().spills, 0);
}

TEST(XJoinTest, SpillsWhenMemoryThresholdReached) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder lb;
  for (int i = 0; i < 50; ++i) lb.Tup(KP(sa, i % 5, i));
  XJoin join(sa, sb, WithMemoryThreshold(10));
  RunJoin(&join, lb.Finish(), ElementsBuilder().Finish());
  EXPECT_GT(join.spill_stats().spills, 0);
  EXPECT_LT(join.memory_state_tuples(), 50);
  EXPECT_EQ(join.total_state_tuples(), 50);  // spilled, not lost
}

TEST(XJoinTest, CleanupRecoversSpilledMatches) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // All left tuples arrive first and spill; right arrives after. The pairs
  // (spilled-left, right) can only come from the disk stages.
  ElementsBuilder lb;
  ElementsBuilder rb;
  for (int i = 0; i < 30; ++i) lb.Tup(KP(sa, i % 3, i));
  for (int i = 0; i < 10; ++i) rb.Tup(KP(sb, i % 3, 100 + i));
  auto left = lb.Finish();
  auto right = rb.Finish();
  XJoin join(sa, sb, WithMemoryThreshold(5));
  auto run = RunJoin(&join, left, right);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
  EXPECT_GT(join.counters().Get("cleanup_passes"), 0);
}

TEST(XJoinTest, ReactiveStageRunsOnStall) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Large arrival gaps force stall detection in the pipeline.
  ElementsBuilder lb(/*step=*/50000);
  ElementsBuilder rb(/*step=*/50000);
  for (int i = 0; i < 20; ++i) lb.Tup(KP(sa, i % 2, i));
  for (int i = 0; i < 20; ++i) rb.Tup(KP(sb, i % 2, 100 + i));
  auto left = lb.Finish();
  auto right = rb.Finish();
  XJoin join(sa, sb, WithMemoryThreshold(4));
  auto run = RunJoin(&join, left, right, /*stall_gap=*/10000);
  EXPECT_GT(run.stalls, 0);
  EXPECT_GT(join.counters().Get("reactive_passes"), 0);
  // Reactive + cleanup must still produce exactly the reference results.
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
}

TEST(XJoinTest, IgnoresPunctuations) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(testing::KeyPunct(1))
                  .Finish();
  XJoin join(sa, sb);
  RunJoin(&join, left, ElementsBuilder().Finish());
  EXPECT_EQ(join.counters().Get("puncts_ignored"), 1);
  EXPECT_EQ(join.total_state_tuples(), 1);
}

// Property sweep: correctness for every memory threshold against generated
// punctuated streams (XJoin must ignore the punctuations and still be exact).
class XJoinThresholdSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(XJoinThresholdSweep, ExactResultsUnderSpilling) {
  DomainSpec d;
  d.window_size = 8;
  StreamSpec spec;
  spec.num_tuples = 300;
  spec.punct_mean_interarrival_tuples = 15;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 99);

  JoinOptions opts = WithMemoryThreshold(GetParam());
  XJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/8000);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0))
      << "memory threshold " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Thresholds, XJoinThresholdSweep,
                         ::testing::Values(2, 5, 17, 64, 1000000));

TEST(XJoinTest, ActivationThresholdGatesReactiveStage) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 2;
  opts.runtime.disk_join_activation_threshold = 10;  // more than ever spills
  XJoin join(sa, sb, opts);
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 0), 1000))
                  .ok());
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 1), 2000))
                  .ok());
  ASSERT_GT(join.state(0).disk_tuples(), 0);
  ASSERT_LT(join.state(0).disk_tuples(), 10);
  ASSERT_TRUE(join.OnStreamsStalled().ok());
  EXPECT_EQ(join.counters().Get("reactive_passes"), 0);
}

TEST(XJoinTest, ReactiveStageEmitsMissingPairsExactlyOnce) {
  // Handcrafted sequence: left key-1 tuples spill, a right key-1 tuple
  // arrives afterwards (pairs missing), then a stall runs the reactive
  // stage. The missing pairs appear exactly once; a second stall must not
  // re-emit them (probe-time duplicate avoidance).
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 2;
  XJoin join(sa, sb, opts);
  int64_t results = 0;
  join.set_result_callback([&results](const Tuple&) { ++results; });

  // Two left tuples -> threshold 2 reached -> both spill.
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 0), 1000))
                  .ok());
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 1), 2000))
                  .ok());
  ASSERT_GT(join.state(0).disk_tuples(), 0);
  // Right tuple arrives; probes empty left memory -> no results yet.
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeTuple(KP(sb, 1, 9), 3000))
                  .ok());
  EXPECT_EQ(results, 0);
  // Reactive pass finds the two disk x memory pairs.
  ASSERT_TRUE(join.OnStreamsStalled().ok());
  EXPECT_EQ(results, 2);
  // Re-running the reactive pass must not duplicate.
  ASSERT_TRUE(join.OnStreamsStalled().ok());
  EXPECT_EQ(results, 2);
  // Cleanup at end must not duplicate either.
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeEndOfStream(4000)).ok());
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeEndOfStream(4000)).ok());
  EXPECT_EQ(results, 2);
}

TEST(XJoinTest, CleanupJoinsDiskAgainstDisk) {
  // Both sides spill before ever meeting; only the cleanup stage can emit
  // the pairs.
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 2;
  XJoin join(sa, sb, opts);
  int64_t results = 0;
  join.set_result_callback([&results](const Tuple&) { ++results; });

  // Same key throughout so both tuples share a partition and spill
  // together when the threshold is hit.
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 0), 1000))
                  .ok());
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 2), 2000))
                  .ok());  // spills both left tuples
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeTuple(KP(sb, 1, 1), 3000))
                  .ok());
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeTuple(KP(sb, 1, 3), 4000))
                  .ok());  // spills both right tuples
  EXPECT_EQ(results, 0);
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeEndOfStream(5000)).ok());
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeEndOfStream(5000)).ok());
  EXPECT_EQ(results, 4);  // the full 2x2 cross product, once each
}

TEST(XJoinTest, DiskComparisonCountersTracked) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder lb;
  ElementsBuilder rb;
  for (int i = 0; i < 30; ++i) lb.Tup(KP(sa, 1, i));
  for (int i = 0; i < 30; ++i) rb.Tup(KP(sb, 1, 100 + i));
  XJoin join(sa, sb, WithMemoryThreshold(8));
  RunJoin(&join, lb.Finish(), rb.Finish());
  EXPECT_GT(join.counters().Get("disk_comparisons"), 0);
  EXPECT_GT(join.state(0).io_stats().pages_written +
                join.state(1).io_stats().pages_written,
            0);
}

}  // namespace
}  // namespace pjoin

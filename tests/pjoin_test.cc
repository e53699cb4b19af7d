#include <gtest/gtest.h>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KeyPayloadSchema;
using testing::KeyPunct;
using testing::KP;
using testing::ReferenceJoinRows;
using testing::RunJoin;

TEST(PJoinTest, JoinsLikeShjWithoutPunctuations) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 1))
                  .Tup(KP(sa, 2, 2))
                  .Finish();
  auto right = ElementsBuilder()
                   .Tup(KP(sb, 1, 3))
                   .Tup(KP(sb, 2, 4))
                   .Finish();
  PJoin join(sa, sb);
  auto run = RunJoin(&join, left, right);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
}

TEST(PJoinTest, EagerPurgeRemovesCoveredTuples) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Left gets tuples with keys 1 and 2; a right punctuation for key 1 purges
  // the key-1 left tuples.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Tup(KP(sa, 1, 1))
                  .Tup(KP(sa, 2, 2))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10000)
                   .Tup(KP(sb, 1, 9))
                   .Punct(KeyPunct(1))
                   .Finish();
  PJoin join(sa, sb);  // defaults: eager purge
  auto run = RunJoin(&join, left, right);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
  // Both key-1 left tuples must be gone; key-2 remains. The right tuple is
  // never covered (no left punctuations) and remains too.
  EXPECT_EQ(join.state(0).total_tuples(), 1);
  EXPECT_GT(join.counters().Get("purge_runs"), 0);
  EXPECT_EQ(join.counters().Get("purged_tuples"), 2);
}

TEST(PJoinTest, LazyPurgeWaitsForThreshold) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder lb;
  for (int64_t k = 0; k < 6; ++k) lb.Tup(KP(sa, k, k));
  auto left = lb.Finish();
  ElementsBuilder rb(/*step=*/10000);
  for (int64_t k = 0; k < 3; ++k) rb.Punct(KeyPunct(k));
  auto right = rb.Finish();

  JoinOptions opts;
  opts.runtime.purge_threshold = 4;  // three punctuations never reach it
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  RunJoin(&join, left, right);
  EXPECT_EQ(join.counters().Get("purge_runs"), 0);
  EXPECT_EQ(join.state(0).total_tuples(), 6);  // nothing purged

  // Same input with threshold 3: one purge run removing keys 0..2.
  PJoin join2(sa, sb, [] {
    JoinOptions o;
    o.runtime.purge_threshold = 3;
    o.propagate_on_finish = false;
    return o;
  }());
  RunJoin(&join2, left, right);
  EXPECT_EQ(join2.counters().Get("purge_runs"), 1);
  EXPECT_EQ(join2.state(0).total_tuples(), 3);
}

TEST(PJoinTest, OnTheFlyDropSkipsCoveredArrivals) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Right punctuates key 1 early; later left arrivals with key 1 are joined
  // against existing right tuples but never stored.
  auto left = ElementsBuilder(/*step=*/10000)
                  .Tup(KP(sa, 1, 0))
                  .Finish();
  auto right = ElementsBuilder()
                   .Tup(KP(sb, 1, 5))
                   .Punct(KeyPunct(1))
                   .Finish();
  PJoin join(sa, sb);
  auto run = RunJoin(&join, left, right);
  ASSERT_EQ(run.results.size(), 1u);  // the probe still found the match
  EXPECT_EQ(join.counters().Get("otf_drops"), 1);
  EXPECT_EQ(join.state(0).total_tuples(), 0);
}

TEST(PJoinTest, OnTheFlyDropDisabled) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder(/*step=*/10000).Tup(KP(sa, 1, 0)).Finish();
  auto right = ElementsBuilder()
                   .Tup(KP(sb, 1, 5))
                   .Punct(KeyPunct(1))
                   .Finish();
  JoinOptions opts;
  opts.drop_on_the_fly = false;
  opts.runtime.purge_threshold = 1000;  // no purge either
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  RunJoin(&join, left, right);
  EXPECT_EQ(join.counters().Get("otf_drops"), 0);
  EXPECT_EQ(join.state(0).total_tuples(), 1);
}

TEST(PJoinTest, PurgeBufferHoldsTuplesOwingDiskJoins) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Fill the right state until it spills, then purge left... Construct:
  // right tuples with key 1 spill to disk; left tuple with key 1 arrives
  // (probes memory only); right punctuates key 1 -> left tuple must wait in
  // the purge buffer for the disk join, which finally emits the pairs.
  ElementsBuilder rb;
  for (int i = 0; i < 12; ++i) rb.Tup(KP(sb, 1, i));
  rb.Punct(KeyPunct(1));
  auto right = rb.Finish();
  auto left = ElementsBuilder(/*step=*/1100).Tup(KP(sa, 1, 77)).Finish();

  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 4;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, right);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(left, right, join.output_schema(), 0, 0));
  EXPECT_GT(join.counters().Get("purge_buffered") +
                join.counters().Get("otf_to_purge_buffer"),
            0);
  EXPECT_EQ(join.state(0).purge_buffer_tuples(), 0);  // cleared by disk join
}

// A memory threshold lowered through monitor().params() is the one the
// join relocates against: the next tuple spills the state below it, as the
// same threshold set at construction would have.
TEST(PJoinTest, RuntimeMemoryThresholdReachesRelocation) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.num_partitions = 4;
  PJoin join(sa, sb, opts);
  const auto feed = [&](int64_t key) {
    const StreamElement e =
        StreamElement::MakeTuple(KP(sa, key, key), 1000 * (key + 1), key);
    ASSERT_TRUE(join.OnElement(0, e).ok());
  };
  for (int64_t k = 0; k < 200; ++k) feed(k);
  EXPECT_EQ(join.memory_state_tuples(), 200);
  EXPECT_EQ(join.spill_stats().spills, 0);

  join.monitor().params().memory_threshold_tuples = 100;
  feed(200);
  EXPECT_LT(join.memory_state_tuples(), 100);
  EXPECT_GT(join.spill_stats().spills, 0);
  EXPECT_EQ(join.total_state_tuples(), 201);
}

TEST(PJoinTest, StateStaysBoundedWithPunctuations) {
  DomainSpec d;
  d.window_size = 10;
  StreamSpec spec;
  spec.num_tuples = 2000;
  spec.punct_mean_interarrival_tuples = 10;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 7);

  JoinOptions opts;
  opts.state_sample_interval = 1;
  PJoin join(g.schema_a, g.schema_b, opts);
  RunJoin(&join, g.a, g.b);
  // Eager purge keeps the state near the live window; far below the 4000
  // tuples an XJoin would hold.
  EXPECT_LT(join.state_series().MaxValue(), 1500);
  EXPECT_GT(join.counters().Get("purged_tuples") +
                join.counters().Get("otf_drops"),
            1000);
}

TEST(PJoinTest, RegistryTableListsComponents) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  PJoin join(sa, sb);
  std::string table = join.registry().ToString();
  EXPECT_NE(table.find("PurgeThresholdReachEvent -> state-purge"),
            std::string::npos);
  EXPECT_NE(table.find("StateFullEvent -> state-relocation"),
            std::string::npos);
  EXPECT_NE(table.find("DiskJoinActivateEvent -> disk-join"),
            std::string::npos);
  // Propagation entries order disk-join, index-build before propagation.
  EXPECT_NE(table.find("PropagateCountReachEvent -> disk-join [cond], "
                       "index-build, propagation"),
            std::string::npos);
}

TEST(PJoinTest, IndexedPurgeModeMatchesScanResults) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 400;
  spec.punct_mean_interarrival_tuples = 8;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 21);

  JoinOptions scan_opts;
  scan_opts.purge_mode = PurgeMode::kScan;
  PJoin scan_join(g.schema_a, g.schema_b, scan_opts);
  auto scan_run = RunJoin(&scan_join, g.a, g.b);

  JoinOptions idx_opts;
  idx_opts.purge_mode = PurgeMode::kIndexed;
  PJoin idx_join(g.schema_a, g.schema_b, idx_opts);
  auto idx_run = RunJoin(&idx_join, g.a, g.b);

  EXPECT_EQ(scan_run.results, idx_run.results);
  // The indexed mode scans far fewer entries.
  EXPECT_LT(idx_join.counters().Get("purge_scanned"),
            scan_join.counters().Get("purge_scanned"));
}

// Under lazy purge with push propagation, propagation can release (and
// remove) a punctuation before the purge applies it; the tuples it covers
// must still be purged, in either purge mode.
TEST(PJoinTest, PurgeAppliesPunctuationsPropagatedBeforeIt) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder().Tup(KP(sa, 1, 0)).Finish();
  ElementsBuilder rb(/*step=*/10000);
  for (int64_t k = 1; k <= 4; ++k) rb.Punct(KeyPunct(k));
  auto right = rb.Finish();
  for (const PurgeMode mode : {PurgeMode::kScan, PurgeMode::kIndexed}) {
    SCOPED_TRACE(mode == PurgeMode::kScan ? "scan" : "indexed");
    JoinOptions opts;
    opts.purge_mode = mode;
    opts.runtime.purge_threshold = 2;
    opts.runtime.propagate_count_threshold = 1;
    PJoin join(sa, sb, opts);
    RunJoin(&join, left, right);
    EXPECT_EQ(join.state(0).memory_tuples(), 0);
    EXPECT_EQ(join.counters().Get("purged_tuples"), 1);
  }
}

// Propagation removes a released punctuation from its set but not its key
// coverage, so a later purge must still apply it to the opposite state,
// even when the set holds no punctuation at purge time, in either purge
// mode.
TEST(PJoinTest, PurgeAppliesPunctuationsPropagationRemoved) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  for (const PurgeMode mode : {PurgeMode::kScan, PurgeMode::kIndexed}) {
    SCOPED_TRACE(mode == PurgeMode::kScan ? "scan" : "indexed");
    JoinOptions opts;
    opts.purge_mode = mode;
    opts.runtime.purge_threshold = 2;
    opts.runtime.propagate_count_threshold = 1;
    PJoin join(sa, sb, opts);
    ASSERT_TRUE(
        join.OnElement(1, StreamElement::MakeTuple(KP(sb, 1, 0), 1000, 0))
            .ok());
    ASSERT_TRUE(join.OnElement(0, StreamElement::MakePunctuation(
                                      KeyPunct(1), 2000, 0))
                    .ok());
    // Released at once (no left tuple on key 1) and removed from its set.
    EXPECT_TRUE(join.punct_set(0).empty());
    // The second punctuation reaches the purge threshold.
    ASSERT_TRUE(join.OnElement(1, StreamElement::MakePunctuation(
                                      KeyPunct(2), 3000, 1))
                    .ok());
    EXPECT_EQ(join.counters().Get("purge_runs"), 1);
    EXPECT_EQ(join.state(1).memory_tuples(), 0);
    EXPECT_EQ(join.counters().Get("purged_tuples"), 1);
  }
}

TEST(PJoinTest, ValidatePrefixRejectsBadStream) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Punct(Punctuation::ForAttribute(
                      2, 0, Pattern::Range(Value(int64_t{0}),
                                           Value(int64_t{10}))))
                  .Punct(Punctuation::ForAttribute(
                      2, 0, Pattern::Range(Value(int64_t{5}),
                                           Value(int64_t{20}))))
                  .Finish();
  JoinOptions opts;
  opts.validate_prefix = true;
  PJoin join(sa, sb, opts);
  join.set_result_callback(nullptr);
  JoinPipeline pipe(&join, nullptr);
  Status s = pipe.Run(left, ElementsBuilder().Finish());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(PJoinTest, ByteMemoryThresholdTriggersSpill) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 300;
  spec.punct_mean_interarrival_tuples = 0;  // nothing ever purges
  GeneratedStreams g = GenerateStreams(d, spec, spec, 61);

  JoinOptions opts;
  opts.runtime.memory_threshold_bytes = 4096;
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/8000);
  EXPECT_GT(join.spill_stats().spills, 0);
  EXPECT_LT(join.memory_state_bytes(), 4096 + 1024);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

TEST(PJoinTest, AllWildcardPunctuationDrainsOppositeState) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder lb;
  for (int64_t k = 0; k < 8; ++k) lb.Tup(KP(sa, k, k));
  auto left = lb.Finish();
  // "Stream B is finished entirely": an all-wildcard punctuation covers
  // every key, so the whole left state purges at once.
  auto right = ElementsBuilder(/*step=*/20000)
                   .Punct(Punctuation::ForAttribute(2, 0,
                                                    Pattern::Wildcard()))
                   .Finish();
  PJoin join(sa, sb);
  RunJoin(&join, left, right);
  EXPECT_EQ(join.state(0).total_tuples(), 0);
  EXPECT_EQ(join.counters().Get("purged_tuples"), 8);
}

TEST(PJoinTest, DiskJoinRunsOnStall) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder lb(/*step=*/50000);
  for (int i = 0; i < 20; ++i) lb.Tup(KP(sa, i % 2, i));
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 4;
  opts.runtime.disk_join_activation_threshold = 1;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, lb.Finish(), ElementsBuilder().Finish(),
                     /*stall_gap=*/10000);
  EXPECT_GT(run.stalls, 0);
  EXPECT_GT(join.counters().Get("disk_join_runs"), 0);
}

// ---- Runtime punctuation-contract validation (ViolationPolicy) ----

// Left stream where key 1 is punctuated and then (contract violation) a key-1
// tuple arrives late.
std::vector<StreamElement> LateTupleStream(const SchemaPtr& sa) {
  return ElementsBuilder()
      .Tup(KP(sa, 1, 0))
      .Tup(KP(sa, 2, 1))
      .Punct(KeyPunct(1))
      .Tup(KP(sa, 1, 2))  // violates the key-1 promise
      .Tup(KP(sa, 2, 3))
      .Finish();
}

// The same stream with the late tuple removed: what a kDrop join must
// effectively see.
std::vector<StreamElement> LateTupleStreamSanitized(const SchemaPtr& sa) {
  return ElementsBuilder()
      .Tup(KP(sa, 1, 0))
      .Tup(KP(sa, 2, 1))
      .Punct(KeyPunct(1))
      .Tup(KP(sa, 2, 3))
      .Finish();
}

TEST(PJoinViolationTest, DropExcludesLateTupleFromResult) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto right = ElementsBuilder(/*step=*/10)
                   .Tup(KP(sb, 1, 9))
                   .Tup(KP(sb, 2, 8))
                   .Finish();
  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kDrop;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, LateTupleStream(sa), right);
  EXPECT_EQ(run.results, ReferenceJoinRows(LateTupleStreamSanitized(sa), right,
                                           join.output_schema(), 0, 0));
  EXPECT_EQ(join.contract_violations(), 1);
  EXPECT_EQ(join.counters().Get("violation_late_tuple"), 1);
  EXPECT_TRUE(join.quarantined_tuples(0).empty());
}

TEST(PJoinViolationTest, ViolationEventDispatchedPerViolation) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kDrop;
  PJoin join(sa, sb, opts);
  class CountingListener : public EventListener {
   public:
    std::string_view name() const override { return "violation-counter"; }
    Status HandleEvent(const Event& e) override {
      EXPECT_EQ(e.type, EventType::kContractViolation);
      EXPECT_EQ(e.detail, "late_tuple");
      ++events;
      return Status::OK();
    }
    int64_t events = 0;
  } listener;
  join.registry().Register(EventType::kContractViolation, &listener);
  auto run = RunJoin(&join, LateTupleStream(sa), ElementsBuilder().Finish());
  EXPECT_EQ(listener.events, join.contract_violations());
  EXPECT_EQ(listener.events, 1);
}

TEST(PJoinViolationTest, QuarantineRetainsTheOffendingTuple) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kQuarantine;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, LateTupleStream(sa), ElementsBuilder().Finish());
  ASSERT_EQ(join.quarantined_tuples(0).size(), 1u);
  EXPECT_EQ(join.quarantined_tuples(0)[0].field(0), Value(int64_t{1}));
  EXPECT_EQ(join.contract_violations(), 1);
}

TEST(PJoinViolationTest, MalformedPunctuationsDroppedNotApplied) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  // Wrong arity for the 2-field schema.
                  .Punct(Punctuation(
                      std::vector<Pattern>(3, Pattern::Wildcard())))
                  // Contains an empty pattern.
                  .Punct(Punctuation::ForAttribute(2, 0, Pattern::Empty()))
                  .Tup(KP(sa, 1, 1))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10).Tup(KP(sb, 1, 9)).Finish();
  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kDrop;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, right);
  // Both key-1 tuples still join: the malformed punctuations never purged
  // anything.
  EXPECT_EQ(run.results.size(), 2u);
  EXPECT_EQ(join.contract_violations(), 2);
  EXPECT_EQ(join.counters().Get("violation_malformed_punctuation_arity"), 1);
  EXPECT_EQ(join.counters().Get("violation_malformed_punctuation_empty"), 1);
  EXPECT_EQ(join.punct_set(0).size(), 0u);
}

TEST(PJoinViolationTest, FailPolicyAbortsOnFirstViolation) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kFail;
  PJoin join(sa, sb, opts);
  Status status;
  for (const StreamElement& e : LateTupleStream(sa)) {
    status = join.OnElement(0, e);
    if (!status.ok()) break;
  }
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(join.contract_violations(), 1);
}

TEST(PJoinViolationTest, NonPrefixPunctuationRoutedThroughPolicy) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(Punctuation::ForAttribute(
                      2, 0, Pattern::Range(Value(int64_t{0}),
                                           Value(int64_t{5}))))
                  // Partially overlaps [0,5]: violates the prefix condition.
                  .Punct(Punctuation::ForAttribute(
                      2, 0, Pattern::Range(Value(int64_t{3}),
                                           Value(int64_t{9}))))
                  .Tup(KP(sa, 7, 1))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10).Tup(KP(sb, 7, 9)).Finish();
  JoinOptions opts;
  opts.validate_prefix = true;
  opts.violation_policy = ViolationPolicy::kDrop;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, right);  // must not abort
  EXPECT_EQ(run.results.size(), 1u);
  EXPECT_EQ(join.counters().Get("violation_non_prefix_punctuation"), 1);
}

TEST(PJoinViolationTest, IgnorePolicyRunsNoChecks) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  PJoin join(sa, sb);  // default kIgnore
  auto run = RunJoin(&join, LateTupleStream(sa), ElementsBuilder().Finish());
  EXPECT_EQ(join.contract_violations(), 0);
}

}  // namespace
}  // namespace pjoin

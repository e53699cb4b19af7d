#include <gtest/gtest.h>

#include <algorithm>

#include "ops/groupby.h"
#include "ops/sink.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::KeyPayloadSchema;
using testing::KeyPunct;
using testing::KP;

TEST(GroupByTest, OutputSchemaPerAggKind) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0,
             {{AggKind::kSum, 1, "total"},
              {AggKind::kCount, 0, "n"},
              {AggKind::kAvg, 1, "mean"},
              {AggKind::kMin, 1, "lo"},
              {AggKind::kMax, 1, "hi"}});
  EXPECT_EQ(gb.output_schema()->ToString(),
            "(key:int64, total:float64, n:int64, mean:float64, lo:int64, "
            "hi:int64)");
}

TEST(GroupByTest, AggregatesPerGroup) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0,
             {{AggKind::kSum, 1, "total"},
              {AggKind::kCount, 0, "n"},
              {AggKind::kAvg, 1, "mean"},
              {AggKind::kMin, 1, "lo"},
              {AggKind::kMax, 1, "hi"}});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(gb.OnTuple(KP(s, 1, 10), 0).ok());
  ASSERT_TRUE(gb.OnTuple(KP(s, 1, 30), 0).ok());
  ASSERT_TRUE(gb.OnTuple(KP(s, 2, 5), 0).ok());
  EXPECT_EQ(gb.open_groups(), 2);
  ASSERT_TRUE(gb.OnEndOfStream().ok());
  ASSERT_EQ(sink.tuples().size(), 2u);
  const Tuple& g1 = sink.tuples()[0];
  EXPECT_EQ(g1.field("key").AsInt64(), 1);
  EXPECT_DOUBLE_EQ(g1.field("total").AsFloat64(), 40.0);
  EXPECT_EQ(g1.field("n").AsInt64(), 2);
  EXPECT_DOUBLE_EQ(g1.field("mean").AsFloat64(), 20.0);
  EXPECT_EQ(g1.field("lo").AsInt64(), 10);
  EXPECT_EQ(g1.field("hi").AsInt64(), 30);
  EXPECT_TRUE(sink.saw_end_of_stream());
  EXPECT_EQ(gb.open_groups(), 0);
}

TEST(GroupByTest, PunctuationClosesGroupEarly) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0, {{AggKind::kSum, 1, "total"}});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(gb.OnTuple(KP(s, 1, 10), 0).ok());
  ASSERT_TRUE(gb.OnTuple(KP(s, 2, 20), 0).ok());
  ASSERT_TRUE(gb.OnPunctuation(KeyPunct(1), 100).ok());
  // Group 1 emitted immediately (the paper's partial-result motivation),
  // group 2 still open.
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].field("key").AsInt64(), 1);
  EXPECT_EQ(gb.open_groups(), 1);
  // The punctuation is forwarded on the output schema.
  ASSERT_EQ(sink.punctuations().size(), 1u);
  EXPECT_EQ(sink.punctuations()[0].pattern(0),
            Pattern::Constant(Value(int64_t{1})));
}

TEST(GroupByTest, RangePunctuationClosesManyGroups) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0, {{AggKind::kCount, 0, "n"}});
  CollectorSink sink;
  gb.set_downstream(&sink);
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(gb.OnTuple(KP(s, k, k), 0).ok());
  }
  ASSERT_TRUE(gb.OnPunctuation(
                    Punctuation::ForAttribute(
                        2, 0,
                        Pattern::Range(Value(int64_t{0}), Value(int64_t{4}))),
                    0)
                  .ok());
  EXPECT_EQ(sink.tuples().size(), 5u);
  EXPECT_EQ(gb.open_groups(), 5);
}

TEST(GroupByTest, NonGroupAttributePunctuationIsUnusable) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0, {{AggKind::kSum, 1, "total"}});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(gb.OnTuple(KP(s, 1, 10), 0).ok());
  // Punctuation on the payload attribute cannot close key groups.
  ASSERT_TRUE(gb.OnPunctuation(
                    Punctuation::ForAttribute(
                        2, 1, Pattern::Constant(Value(int64_t{10}))),
                    0)
                  .ok());
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_EQ(gb.open_groups(), 1);
  EXPECT_EQ(gb.counters().Get("puncts_unusable"), 1);
}

TEST(GroupByTest, PunctuationForEmptyGroupEmitsNothingButForwards) {
  SchemaPtr s = KeyPayloadSchema("v");
  GroupBy gb(s, 0, {{AggKind::kSum, 1, "total"}});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(gb.OnPunctuation(KeyPunct(77), 0).ok());
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_EQ(sink.punctuations().size(), 1u);
}

TEST(GroupByTest, PartialResultsPlusFinalEqualsFullAggregate) {
  SchemaPtr s = KeyPayloadSchema("v");
  // Run once with punctuations interleaved, once without; the union of
  // emitted groups must be identical.
  std::vector<std::pair<int64_t, int64_t>> data = {
      {1, 5}, {2, 6}, {1, 7}, {3, 8}, {2, 9}, {3, 1}, {4, 2}};
  auto run = [&](bool with_puncts) {
    GroupBy gb(s, 0, {{AggKind::kSum, 1, "total"}, {AggKind::kCount, 0, "n"}});
    CollectorSink sink;
    gb.set_downstream(&sink);
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_TRUE(gb.OnTuple(KP(s, data[i].first, data[i].second), 0).ok());
      if (with_puncts && i == 4) {
        // Keys 1 and 2 are complete at this point.
        EXPECT_TRUE(gb.OnPunctuation(KeyPunct(1), 0).ok());
        EXPECT_TRUE(gb.OnPunctuation(KeyPunct(2), 0).ok());
      }
    }
    EXPECT_TRUE(gb.OnEndOfStream().ok());
    std::vector<std::string> rows;
    for (const Tuple& t : sink.tuples()) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(GroupByTest, AliasPunctuationClosesGroup) {
  // Schema mimics a join output: (key, v, key_r) with key_r == key always.
  SchemaPtr s = Schema::Make({{"key", ValueType::kInt64},
                              {"v", ValueType::kInt64},
                              {"key_r", ValueType::kInt64}});
  GroupBy gb(s, 0, {{AggKind::kCount, 0, "n"}}, /*group_aliases=*/{2});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(
      gb.OnTuple(Tuple(s, {Value(int64_t{1}), Value(int64_t{5}),
                           Value(int64_t{1})}),
                 0)
          .ok());
  // Punctuation constraining only the alias column.
  ASSERT_TRUE(gb.OnPunctuation(
                    Punctuation::ForAttribute(
                        3, 2, Pattern::Constant(Value(int64_t{1}))),
                    0)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].field(0).AsInt64(), 1);
  EXPECT_EQ(gb.open_groups(), 0);
}

TEST(GroupByTest, AliasAndGroupPatternsIntersect) {
  SchemaPtr s = Schema::Make({{"key", ValueType::kInt64},
                              {"v", ValueType::kInt64},
                              {"key_r", ValueType::kInt64}});
  GroupBy gb(s, 0, {{AggKind::kCount, 0, "n"}}, /*group_aliases=*/{2});
  CollectorSink sink;
  gb.set_downstream(&sink);
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(
        gb.OnTuple(Tuple(s, {Value(k), Value(k), Value(k)}), 0).ok());
  }
  // [0..6] on the group column AND [4..9] on the alias: effective [4..6].
  Punctuation p({Pattern::Range(Value(int64_t{0}), Value(int64_t{6})),
                 Pattern::Wildcard(),
                 Pattern::Range(Value(int64_t{4}), Value(int64_t{9}))});
  ASSERT_TRUE(gb.OnPunctuation(p, 0).ok());
  EXPECT_EQ(sink.tuples().size(), 3u);  // groups 4, 5, 6
  EXPECT_EQ(gb.open_groups(), 7);
}

TEST(GroupByTest, NonAliasConstraintStillUnusable) {
  SchemaPtr s = Schema::Make({{"key", ValueType::kInt64},
                              {"v", ValueType::kInt64},
                              {"key_r", ValueType::kInt64}});
  GroupBy gb(s, 0, {{AggKind::kCount, 0, "n"}}, /*group_aliases=*/{2});
  CollectorSink sink;
  gb.set_downstream(&sink);
  ASSERT_TRUE(
      gb.OnTuple(Tuple(s, {Value(int64_t{1}), Value(int64_t{5}),
                           Value(int64_t{1})}),
                 0)
          .ok());
  // Constrains the middle (non-alias) column: cannot close groups.
  Punctuation p({Pattern::Constant(Value(int64_t{1})),
                 Pattern::Constant(Value(int64_t{5})),
                 Pattern::Wildcard()});
  ASSERT_TRUE(gb.OnPunctuation(p, 0).ok());
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_EQ(gb.counters().Get("puncts_unusable"), 1);
}

TEST(SinkTest, CountingSinkCounts) {
  SchemaPtr s = KeyPayloadSchema("v");
  CountingSink sink;
  ASSERT_TRUE(sink.OnTuple(KP(s, 1, 1), 0).ok());
  ASSERT_TRUE(sink.OnTuple(KP(s, 2, 2), 0).ok());
  ASSERT_TRUE(sink.OnPunctuation(KeyPunct(1), 0).ok());
  ASSERT_TRUE(sink.OnEndOfStream().ok());
  EXPECT_EQ(sink.tuple_count(), 2);
  EXPECT_EQ(sink.punct_count(), 1);
  EXPECT_TRUE(sink.saw_end_of_stream());
}

TEST(SinkTest, CallbackSinkInvokes) {
  SchemaPtr s = KeyPayloadSchema("v");
  int tuples = 0;
  int puncts = 0;
  CallbackSink sink([&tuples](const Tuple&, TimeMicros) { ++tuples; },
                    [&puncts](const Punctuation&, TimeMicros) { ++puncts; });
  ASSERT_TRUE(sink.OnTuple(KP(s, 1, 1), 0).ok());
  ASSERT_TRUE(sink.OnPunctuation(KeyPunct(1), 0).ok());
  EXPECT_EQ(tuples, 1);
  EXPECT_EQ(puncts, 1);
}

/// Forwards every tuple unchanged; punctuations and end-of-stream take the
/// base class's forwarding.
class PassThrough : public Operator {
 public:
  Status OnTuple(const Tuple& tuple, TimeMicros arrival) override {
    return EmitTuple(tuple, arrival);
  }
};

TEST(OperatorTest, ChainForwardsThroughMultipleStages) {
  SchemaPtr s = KeyPayloadSchema("v");
  PassThrough pass;
  GroupBy gb(s, 0, {{AggKind::kCount, 0, "n"}});
  CollectorSink sink;
  pass.set_downstream(&gb);
  gb.set_downstream(&sink);
  ASSERT_TRUE(pass.OnTuple(KP(s, 5, 50), 0).ok());
  ASSERT_TRUE(pass.OnTuple(KP(s, 5, 60), 0).ok());
  ASSERT_TRUE(pass.OnTuple(KP(s, 7, 70), 0).ok());
  // The punctuation crosses the first stage and closes key 5's group at
  // the second; end-of-stream flushes key 7's and reaches the sink.
  ASSERT_TRUE(pass.OnPunctuation(KeyPunct(5), 0).ok());
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].field("n").AsInt64(), 2);
  ASSERT_EQ(sink.punctuations().size(), 1u);
  ASSERT_TRUE(pass.OnEndOfStream().ok());
  ASSERT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[1].field("key").AsInt64(), 7);
  EXPECT_TRUE(sink.saw_end_of_stream());
}

}  // namespace
}  // namespace pjoin

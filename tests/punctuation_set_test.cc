#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "punct/punctuation_set.h"

namespace pjoin {
namespace {

SchemaPtr TwoFieldSchema() {
  return Schema::Make({{"key", ValueType::kInt64}, {"p", ValueType::kInt64}});
}

Tuple T(const SchemaPtr& s, int64_t key, int64_t payload = 0) {
  return Tuple(s, {Value(key), Value(payload)});
}

Punctuation KeyPunct(int64_t key) {
  return Punctuation::ForAttribute(2, 0, Pattern::Constant(Value(key)));
}

Punctuation KeyRangePunct(int64_t lo, int64_t hi) {
  return Punctuation::ForAttribute(2, 0,
                                   Pattern::Range(Value(lo), Value(hi)));
}

TEST(PunctuationSetTest, PidsIncreaseInArrivalOrder) {
  PunctuationSet ps(0);
  EXPECT_EQ(ps.Add(KeyPunct(1), 10).value(), 0);
  EXPECT_EQ(ps.Add(KeyPunct(2), 20).value(), 1);
  EXPECT_EQ(ps.Add(KeyPunct(3), 30).value(), 2);
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.PidsInOrder(), (std::vector<int64_t>{0, 1, 2}));
}

TEST(PunctuationSetTest, SetMatchFullTuple) {
  SchemaPtr s = TwoFieldSchema();
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(5), 0).ok());
  EXPECT_TRUE(ps.SetMatch(T(s, 5)));
  EXPECT_FALSE(ps.SetMatch(T(s, 6)));
}

TEST(PunctuationSetTest, SetMatchHonorsNonKeyPatterns) {
  SchemaPtr s = TwoFieldSchema();
  PunctuationSet ps(0);
  // Punctuation constraining key AND payload.
  Punctuation p({Pattern::Constant(Value(int64_t{5})),
                 Pattern::Constant(Value(int64_t{1}))});
  ASSERT_TRUE(ps.Add(p, 0).ok());
  EXPECT_TRUE(ps.SetMatch(T(s, 5, 1)));
  EXPECT_FALSE(ps.SetMatch(T(s, 5, 2)));
}

// Both forms of SetMatchKey: by value, and by the caller's key hash.
void ExpectCovered(const PunctuationSet& ps, const Value& key, bool covered) {
  EXPECT_EQ(ps.SetMatchKey(key), covered) << key.ToString();
  EXPECT_EQ(ps.SetMatchKey(key, key.Hash()), covered) << key.ToString();
}

TEST(PunctuationSetTest, SetMatchKeyIgnoresNonKeyOnlyPunctuations) {
  PunctuationSet ps(0);
  Punctuation p({Pattern::Constant(Value(int64_t{5})),
                 Pattern::Constant(Value(int64_t{1}))});
  ASSERT_TRUE(ps.Add(p, 0).ok());
  Punctuation range({Pattern::Range(Value(int64_t{10}), Value(int64_t{20})),
                     Pattern::Constant(Value(int64_t{1}))});
  ASSERT_TRUE(ps.Add(range, 1).ok());
  // Key 5 may still arrive with other payloads, so a cross-stream purge on
  // key 5 would be unsafe.
  ExpectCovered(ps, Value(int64_t{5}), false);
  ExpectCovered(ps, Value(int64_t{15}), false);
  ASSERT_TRUE(ps.Add(KeyPunct(5), 2).ok());
  ExpectCovered(ps, Value(int64_t{5}), true);
}

// The hashed lookup answers as the by-value one over every key type and
// every kind of covered pattern.
TEST(PunctuationSetTest, SetMatchKeyByHashAgreesWithByValue) {
  struct Case {
    std::string name;
    std::vector<Pattern> covered;
    std::vector<Value> in;
    std::vector<Value> out;
  };
  const std::vector<Case> cases = {
      {"int64",
       {Pattern::Constant(Value(int64_t{7})),
        Pattern::Range(Value(int64_t{100}), Value(int64_t{200})),
        Pattern::EnumList({Value(int64_t{300}), Value(int64_t{302})})},
       {Value(int64_t{7}), Value(int64_t{100}), Value(int64_t{150}),
        Value(int64_t{200}), Value(int64_t{302})},
       {Value(int64_t{8}), Value(int64_t{99}), Value(int64_t{201}),
        Value(int64_t{301}), Value()}},
      {"double",
       {Pattern::Constant(Value(0.0)), Pattern::Constant(Value(2.5)),
        Pattern::Range(Value(10.0), Value(11.0)),
        Pattern::EnumList({Value(20.25), Value(30.5)})},
       {Value(0.0), Value(-0.0), Value(2.5), Value(10.5), Value(30.5)},
       {Value(2.4), Value(9.99), Value(20.0), Value()}},
      {"string",
       {Pattern::Constant(Value("customer-account-7")),
        Pattern::Range(Value("m"), Value("n")),
        Pattern::EnumList({Value("x"), Value("zz")})},
       {Value("customer-account-7"), Value("m"), Value("ma"), Value("zz")},
       {Value("customer-account-8"), Value("customer-account-77"),
        Value("o"), Value("z"), Value("")}},
      {"null",
       {Pattern::Constant(Value()), Pattern::Constant(Value(int64_t{1}))},
       {Value(), Value(int64_t{1})},
       {Value(int64_t{0})}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PunctuationSet ps(0);
    for (size_t i = 0; i < c.covered.size(); ++i) {
      ASSERT_TRUE(ps.Add(Punctuation::ForAttribute(2, 0, c.covered[i]),
                         static_cast<TimeMicros>(i))
                      .ok());
    }
    for (const Value& v : c.in) ExpectCovered(ps, v, true);
    for (const Value& v : c.out) ExpectCovered(ps, v, false);
  }
}

// A hash hit is checked against the key itself, so a forged hash equal to
// a covered constant's never covers another key; a wrong hash for a
// covered key only misses it.
TEST(PunctuationSetTest, SetMatchKeyComparesTheKeyOnAHashHit) {
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(5), 0).ok());
  ASSERT_TRUE(ps.Add(Punctuation::ForAttribute(
                         2, 0, Pattern::Constant(Value("customer-account-1"))),
                     1)
                  .ok());
  const uint64_t five = Value(int64_t{5}).Hash();
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{6}), five));
  EXPECT_FALSE(ps.SetMatchKey(Value(5.0), five));
  EXPECT_FALSE(ps.SetMatchKey(Value("5"), five));
  EXPECT_FALSE(ps.SetMatchKey(Value("customer-account-2"),
                              Value("customer-account-1").Hash()));
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{5}), five + 1));
  // Free slots are zero-filled; a zero hash still finds nothing.
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{0}), 0));
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{5}), five));
}

// Answers stay exact as the table grows through many doublings.
TEST(PunctuationSetTest, SetMatchKeySurvivesTableGrowth) {
  PunctuationSet ps(0);
  constexpr int64_t kConstants = 5000;
  for (int64_t k = 0; k < kConstants; ++k) {
    ASSERT_TRUE(ps.Add(KeyPunct(2 * k), k).ok());
    if (k % 997 == 0) {
      ExpectCovered(ps, Value(2 * k), true);
      ExpectCovered(ps, Value(2 * k + 2), false);
    }
  }
  // Punctuating a covered key again changes nothing.
  ASSERT_TRUE(ps.Add(KeyPunct(0), kConstants).ok());
  for (int64_t v = -2; v < 2 * kConstants + 2; ++v) {
    ExpectCovered(ps, Value(v), v >= 0 && v < 2 * kConstants && v % 2 == 0);
  }
}

TEST(PunctuationSetTest, SetMatchKeyWithRangePattern) {
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyRangePunct(10, 20), 0).ok());
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{15})));
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{10})));
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{9})));
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{21})));
}

TEST(PunctuationSetTest, FindFirstMatchPrefersEarliestArrival) {
  SchemaPtr s = TwoFieldSchema();
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyRangePunct(0, 100), 0).ok());   // pid 0
  ASSERT_TRUE(ps.Add(KeyPunct(5), 1).ok());             // pid 1
  PunctEntry* e = ps.FindFirstMatch(T(s, 5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pid, 0);
  EXPECT_EQ(ps.FindFirstMatch(T(s, 500)), nullptr);
}

TEST(PunctuationSetTest, FindFirstMatchConstantBeforeLaterRange) {
  SchemaPtr s = TwoFieldSchema();
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(5), 0).ok());            // pid 0
  ASSERT_TRUE(ps.Add(KeyRangePunct(0, 100), 1).ok());  // pid 1
  PunctEntry* e = ps.FindFirstMatch(T(s, 5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pid, 0);
}

TEST(PunctuationSetTest, RemoveDropsFromIndexes) {
  SchemaPtr s = TwoFieldSchema();
  PunctuationSet ps(0);
  int64_t pid_const = ps.Add(KeyPunct(5), 0).value();
  int64_t pid_range = ps.Add(KeyRangePunct(10, 20), 1).value();
  ps.Remove(pid_const);
  EXPECT_EQ(ps.size(), 1u);
  EXPECT_FALSE(ps.SetMatch(T(s, 5)));
  EXPECT_EQ(ps.Find(pid_const), nullptr);
  ps.Remove(pid_range);
  EXPECT_TRUE(ps.empty());
  // Key coverage survives the removal: a key-only punctuation's promise
  // holds forever.
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{15})));
}

TEST(PunctuationSetTest, KeyOnlyFlagComputed) {
  PunctuationSet ps(0);
  int64_t a = ps.Add(KeyPunct(1), 0).value();
  Punctuation both({Pattern::Constant(Value(int64_t{2})),
                    Pattern::Constant(Value(int64_t{9}))});
  int64_t b = ps.Add(both, 1).value();
  EXPECT_TRUE(ps.Find(a)->key_only);
  EXPECT_FALSE(ps.Find(b)->key_only);
}

TEST(PunctuationSetTest, PrefixValidationAcceptsDisjointAndContaining) {
  PunctuationSet ps(0, /*validate_prefix=*/true);
  ASSERT_TRUE(ps.Add(KeyPunct(1), 0).ok());
  // Disjoint: fine.
  ASSERT_TRUE(ps.Add(KeyPunct(2), 1).ok());
  // Containing an earlier punctuation: fine ([0,5] contains {1} and {2}).
  ASSERT_TRUE(ps.Add(KeyRangePunct(0, 5), 2).ok());
}

TEST(PunctuationSetTest, PrefixValidationRejectsPartialOverlap) {
  PunctuationSet ps(0, /*validate_prefix=*/true);
  ASSERT_TRUE(ps.Add(KeyRangePunct(0, 10), 0).ok());
  // [5, 20] overlaps [0, 10] without containing it.
  Result<int64_t> r = ps.Add(KeyRangePunct(5, 20), 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PunctuationSetTest, ForEachVisitsInArrivalOrder) {
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(3), 0).ok());
  ASSERT_TRUE(ps.Add(KeyPunct(1), 1).ok());
  ASSERT_TRUE(ps.Add(KeyPunct(2), 2).ok());
  std::vector<int64_t> pids;
  ps.ForEach([&pids](PunctEntry& e) { pids.push_back(e.pid); });
  EXPECT_EQ(pids, (std::vector<int64_t>{0, 1, 2}));
}

TEST(PunctuationSetTest, RemoveKeepsKeyCoverage) {
  PunctuationSet ps(0);
  int64_t pid = ps.Add(KeyPunct(5), 0).value();
  ps.Remove(pid);
  EXPECT_TRUE(ps.empty());
  EXPECT_EQ(ps.Find(pid), nullptr);
  // The key is still covered for purge / on-the-fly-drop purposes.
  ExpectCovered(ps, Value(int64_t{5}), true);
  ExpectCovered(ps, Value(int64_t{6}), false);
}

TEST(PunctuationSetTest, RemoveKeepsRangeCoverage) {
  PunctuationSet ps(0);
  int64_t pid = ps.Add(KeyRangePunct(10, 20), 0).value();
  ps.Remove(pid);
  ExpectCovered(ps, Value(int64_t{15}), true);
  ExpectCovered(ps, Value(int64_t{25}), false);
}

TEST(PunctuationSetTest, RemoveGrantsNonKeyOnlyNoCoverage) {
  PunctuationSet ps(0);
  Punctuation both({Pattern::Constant(Value(int64_t{5})),
                    Pattern::Constant(Value(int64_t{1}))});
  int64_t pid = ps.Add(both, 0).value();
  ps.Remove(pid);
  // A non-key-only punctuation never grants key coverage.
  ExpectCovered(ps, Value(int64_t{5}), false);
}

TEST(PunctuationSetTest, WorkQueuesDrainOnce) {
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(1), 0).ok());
  ASSERT_TRUE(ps.Add(KeyRangePunct(10, 20), 1).ok());
  // Not key-only: never applied to the opposite state.
  ASSERT_TRUE(ps.Add(Punctuation({Pattern::Constant(Value(int64_t{2})),
                                  Pattern::Constant(Value(int64_t{9}))}),
                     2)
                  .ok());
  auto purge_batch = ps.TakeUnappliedForPurge();
  EXPECT_EQ(purge_batch,
            (std::vector<Pattern>{Pattern::Constant(Value(int64_t{1})),
                                  Pattern::Range(Value(int64_t{10}),
                                                 Value(int64_t{20}))}));
  EXPECT_TRUE(ps.TakeUnappliedForPurge().empty());

  auto index_batch = ps.TakeUnindexed();
  EXPECT_EQ(index_batch, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_TRUE(ps.TakeUnindexed().empty());

  // New additions re-enter both queues, and a punctuation removed before
  // the purge drains the queue is still applied.
  ASSERT_TRUE(ps.Add(KeyPunct(3), 3).ok());
  ps.Remove(3);
  EXPECT_EQ(ps.TakeUnappliedForPurge(),
            (std::vector<Pattern>{Pattern::Constant(Value(int64_t{3}))}));
  EXPECT_EQ(ps.TakeUnindexed(), (std::vector<int64_t>{3}));
}

TEST(PunctuationSetTest, ByteSizeGrowsWithEntries) {
  PunctuationSet ps(0);
  size_t empty_size = ps.ByteSize();
  ASSERT_TRUE(ps.Add(KeyPunct(1), 0).ok());
  EXPECT_GT(ps.ByteSize(), empty_size);
}

}  // namespace
}  // namespace pjoin

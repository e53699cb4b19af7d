#include <gtest/gtest.h>

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

TEST(PunctuationSetTest, SetMatchKeyIgnoresNonKeyOnlyPunctuations) {
  PunctuationSet ps(0);
  Punctuation p({Pattern::Constant(Value(int64_t{5})),
                 Pattern::Constant(Value(int64_t{1}))});
  ASSERT_TRUE(ps.Add(p, 0).ok());
  // Key 5 may still arrive with other payloads, so a cross-stream purge on
  // key 5 would be unsafe.
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{5})));
  ASSERT_TRUE(ps.Add(KeyPunct(5), 1).ok());
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{5})));
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
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{5})));
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{6})));
}

TEST(PunctuationSetTest, RemoveKeepsRangeCoverage) {
  PunctuationSet ps(0);
  int64_t pid = ps.Add(KeyRangePunct(10, 20), 0).value();
  ps.Remove(pid);
  EXPECT_TRUE(ps.SetMatchKey(Value(int64_t{15})));
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{25})));
}

TEST(PunctuationSetTest, RemoveGrantsNonKeyOnlyNoCoverage) {
  PunctuationSet ps(0);
  Punctuation both({Pattern::Constant(Value(int64_t{5})),
                    Pattern::Constant(Value(int64_t{1}))});
  int64_t pid = ps.Add(both, 0).value();
  ps.Remove(pid);
  // A non-key-only punctuation never grants key coverage.
  EXPECT_FALSE(ps.SetMatchKey(Value(int64_t{5})));
}

TEST(PunctuationSetTest, WorkQueuesDrainOnce) {
  PunctuationSet ps(0);
  ASSERT_TRUE(ps.Add(KeyPunct(1), 0).ok());
  ASSERT_TRUE(ps.Add(KeyPunct(2), 1).ok());
  auto purge_batch = ps.TakeUnappliedForPurge();
  EXPECT_EQ(purge_batch, (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(ps.TakeUnappliedForPurge().empty());
  EXPECT_TRUE(ps.Find(0)->purge_applied);

  auto index_batch = ps.TakeUnindexed();
  EXPECT_EQ(index_batch, (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(ps.TakeUnindexed().empty());

  // New additions re-enter both queues.
  ASSERT_TRUE(ps.Add(KeyPunct(3), 2).ok());
  EXPECT_EQ(ps.TakeUnappliedForPurge(), (std::vector<int64_t>{2}));
  EXPECT_EQ(ps.TakeUnindexed(), (std::vector<int64_t>{2}));
}

TEST(PunctuationSetTest, ByteSizeGrowsWithEntries) {
  PunctuationSet ps(0);
  size_t empty_size = ps.ByteSize();
  ASSERT_TRUE(ps.Add(KeyPunct(1), 0).ok());
  EXPECT_GT(ps.ByteSize(), empty_size);
}

}  // namespace
}  // namespace pjoin

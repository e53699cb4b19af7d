#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "stream/arrival_merge.h"
#include "test_util.h"
#include "window/window_pjoin.h"

namespace pjoin {
namespace {

using testing::KeyPayloadSchema;
using testing::KeyPunct;
using testing::KP;

StreamElement Tup(const SchemaPtr& s, int64_t key, int64_t payload,
                  TimeMicros at, int64_t seq = 0) {
  return StreamElement::MakeTuple(
      Tuple(s, {Value(key), Value(payload)}), at, seq);
}

class WindowPJoinTest : public ::testing::Test {
 protected:
  WindowPJoinTest() : sa_(KeyPayloadSchema("a")), sb_(KeyPayloadSchema("b")) {}

  WindowJoinOptions Opts(TimeMicros window) {
    WindowJoinOptions o;
    o.window_micros = window;
    return o;
  }

  SchemaPtr sa_;
  SchemaPtr sb_;
};

TEST_F(WindowPJoinTest, JoinsWithinWindowOnly) {
  WindowPJoin join(sa_, sb_, Opts(1000));
  int64_t results = 0;
  join.set_result_callback([&results](const Tuple&) { ++results; });
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 1, 10, 0)).ok());
  // Within window (Δ = 500).
  ASSERT_TRUE(join.OnElement(1, Tup(sb_, 1, 20, 500)).ok());
  EXPECT_EQ(results, 1);
  // Outside window relative to the left tuple (Δ = 2000), but within 1500
  // of the right tuple at 500: only pairs within the window count.
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 1, 11, 2000)).ok());
  EXPECT_EQ(results, 1);  // (11,20) has Δ=1500 > 1000 — expired
}

TEST_F(WindowPJoinTest, MatchesBruteForceSemantics) {
  // Random-ish deterministic scenario; compare against an O(n^2) reference
  // applying the |Δt| <= W rule.
  const TimeMicros W = 3000;
  std::vector<StreamElement> left;
  std::vector<StreamElement> right;
  int64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    left.push_back(Tup(sa_, i % 5, i, i * 700, seq++));
    right.push_back(Tup(sb_, i % 5, 100 + i, i * 700 + 350, seq++));
  }
  int64_t expected = 0;
  for (const auto& l : left) {
    for (const auto& r : right) {
      if (l.tuple().field(0) == r.tuple().field(0) &&
          std::abs(l.arrival() - r.arrival()) <= W) {
        ++expected;
      }
    }
  }
  WindowPJoin join(sa_, sb_, Opts(W));
  // Feed in global arrival order.
  for (ArrivalMerge merge(left, right); !merge.done();) {
    const auto [side, e] = merge.Next();
    ASSERT_TRUE(join.OnElement(side, *e).ok());
  }
  EXPECT_EQ(join.results_emitted(), expected);
}

TEST_F(WindowPJoinTest, WindowBoundsState) {
  WindowPJoin join(sa_, sb_, Opts(1000));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(join.OnElement(0, Tup(sa_, i, i, i * 500)).ok());
    // Opposite arrivals drive expiry of the left state.
    ASSERT_TRUE(join.OnElement(1, Tup(sb_, i, i, i * 500 + 1)).ok());
  }
  // Window of 1000us at 500us spacing: ~3 live tuples per side.
  EXPECT_LT(join.state_tuples(), 12);
  EXPECT_GT(join.counters().Get("window_expired"), 150);
}

TEST_F(WindowPJoinTest, PunctuationPurgesBeforeExpiry) {
  WindowPJoin join(sa_, sb_, Opts(1000000));  // huge window
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 1, 0, 0)).ok());
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 2, 0, 10)).ok());
  EXPECT_EQ(join.state_tuples(0), 2);
  // A right punctuation for key 1 drops the left key-1 tuple long before
  // the window would.
  ASSERT_TRUE(join.OnElement(
                      1, StreamElement::MakePunctuation(KeyPunct(1), 20))
                  .ok());
  EXPECT_EQ(join.state_tuples(0), 1);
  EXPECT_EQ(join.counters().Get("punct_purged"), 1);
}

TEST_F(WindowPJoinTest, OnTheFlyDropWithPunctuations) {
  WindowPJoin join(sa_, sb_, Opts(1000000));
  ASSERT_TRUE(join.OnElement(
                      1, StreamElement::MakePunctuation(KeyPunct(5), 0))
                  .ok());
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 5, 0, 10)).ok());
  EXPECT_EQ(join.state_tuples(0), 0);
  EXPECT_EQ(join.counters().Get("otf_drops"), 1);
}

TEST_F(WindowPJoinTest, EarlyPropagation) {
  WindowPJoin join(sa_, sb_, Opts(1000000));
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });
  // Left punct for a key with no left tuples: propagates immediately even
  // though the window is far from closing.
  ASSERT_TRUE(join.OnElement(
                      0, StreamElement::MakePunctuation(KeyPunct(9), 0))
                  .ok());
  ASSERT_EQ(puncts.size(), 1u);
  EXPECT_EQ(puncts[0].pattern(0), Pattern::Constant(Value(int64_t{9})));
}

TEST_F(WindowPJoinTest, PropagationWaitsForMatchingTuples) {
  WindowPJoin join(sa_, sb_, Opts(1000000));
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 9, 0, 0)).ok());
  ASSERT_TRUE(join.OnElement(
                      0, StreamElement::MakePunctuation(KeyPunct(9), 10))
                  .ok());
  EXPECT_TRUE(puncts.empty());
  // Right punctuation purges the left tuple -> left punct releases at the
  // next propagation opportunity (the purge path runs propagation for the
  // arriving punctuation's own stream; finish flushes the rest).
  ASSERT_TRUE(join.OnElement(
                      1, StreamElement::MakePunctuation(KeyPunct(9), 20))
                  .ok());
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeEndOfStream(30)).ok());
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeEndOfStream(30)).ok());
  EXPECT_GE(puncts.size(), 1u);
}

// Property sweep: window-join semantics vs brute force, with punctuations
// interleaved, across seeds and window lengths.
class WindowSemanticsSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t>> {};

TEST_P(WindowSemanticsSweep, MatchesBruteForceWithPunctuations) {
  const auto [seed, window_ms] = GetParam();
  const TimeMicros W = window_ms * kMicrosPerMilli;
  SchemaPtr sa = testing::KeyPayloadSchema("a");
  SchemaPtr sb = testing::KeyPayloadSchema("b");
  Rng rng(seed);

  // Per-stream open key sets so punctuations are sound per stream.
  std::vector<int64_t> open[2] = {{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}};
  std::vector<StreamElement> streams[2];
  TimeMicros now = 0;
  int64_t seq = 0;
  for (int i = 0; i < 150; ++i) {
    now += 1 + static_cast<TimeMicros>(rng.NextBounded(2000));
    const int side = static_cast<int>(rng.NextBounded(2));
    if (!open[side].empty() && rng.NextBool(0.9)) {
      const int64_t key = open[side][rng.NextBounded(open[side].size())];
      streams[side].push_back(StreamElement::MakeTuple(
          testing::KP(side == 0 ? sa : sb, key, i), now, seq++));
    } else if (open[side].size() > 1) {
      const size_t victim = rng.NextBounded(open[side].size());
      streams[side].push_back(StreamElement::MakePunctuation(
          testing::KeyPunct(open[side][victim]), now, seq++));
      open[side].erase(open[side].begin() +
                       static_cast<ptrdiff_t>(victim));
    }
  }
  streams[0].push_back(StreamElement::MakeEndOfStream(now, seq++));
  streams[1].push_back(StreamElement::MakeEndOfStream(now, seq++));

  // Brute-force reference: key-equal pairs within the window.
  int64_t expected = 0;
  for (const auto& l : streams[0]) {
    if (!l.is_tuple()) continue;
    for (const auto& r : streams[1]) {
      if (!r.is_tuple()) continue;
      if (l.tuple().field(0) == r.tuple().field(0) &&
          std::abs(l.arrival() - r.arrival()) <= W) {
        ++expected;
      }
    }
  }

  WindowJoinOptions opts;
  opts.window_micros = W;
  WindowPJoin join(sa, sb, opts);
  for (ArrivalMerge merge(streams[0], streams[1]); !merge.done();) {
    const auto [side, e] = merge.Next();
    ASSERT_TRUE(join.OnElement(side, *e).ok());
  }
  EXPECT_EQ(join.results_emitted(), expected)
      << "seed " << seed << " window " << window_ms << "ms";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWindows, WindowSemanticsSweep,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values<int64_t>(1, 10, 100, 100000)));

TEST_F(WindowPJoinTest, PunctuationsIgnoredWhenDisabled) {
  WindowJoinOptions opts;
  opts.window_micros = 1000000;
  opts.exploit_punctuations = false;
  WindowPJoin join(sa_, sb_, opts);
  ASSERT_TRUE(join.OnElement(0, Tup(sa_, 1, 0, 0)).ok());
  ASSERT_TRUE(join.OnElement(
                      1, StreamElement::MakePunctuation(KeyPunct(1), 10))
                  .ok());
  EXPECT_EQ(join.state_tuples(0), 1);  // nothing purged
}

}  // namespace
}  // namespace pjoin

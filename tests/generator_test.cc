#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/stream_generator.h"
#include "punct/punctuation_set.h"

namespace pjoin {
namespace {

// Every punctuation in a stream must be sound: no later tuple of the same
// stream may match it.
void ExpectPunctuationsSound(const std::vector<StreamElement>& stream) {
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!stream[i].is_punctuation()) continue;
    const Punctuation& p = stream[i].punctuation();
    for (size_t j = i + 1; j < stream.size(); ++j) {
      if (!stream[j].is_tuple()) continue;
      EXPECT_FALSE(p.Matches(stream[j].tuple()))
          << "tuple " << stream[j].ToString() << " violates punctuation "
          << p.ToString() << " at position " << i;
    }
  }
}

StreamSpec SmallSpec(double punct_interarrival = 10.0) {
  StreamSpec spec;
  spec.num_tuples = 500;
  spec.punct_mean_interarrival_tuples = punct_interarrival;
  return spec;
}

TEST(GeneratorTest, DeterministicForSeed) {
  DomainSpec d;
  GeneratedStreams g1 = GenerateStreams(d, SmallSpec(), SmallSpec(), 42);
  GeneratedStreams g2 = GenerateStreams(d, SmallSpec(), SmallSpec(), 42);
  ASSERT_EQ(g1.a.size(), g2.a.size());
  ASSERT_EQ(g1.b.size(), g2.b.size());
  for (size_t i = 0; i < g1.a.size(); ++i) {
    EXPECT_EQ(g1.a[i].ToString(), g2.a[i].ToString());
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  DomainSpec d;
  GeneratedStreams g1 = GenerateStreams(d, SmallSpec(), SmallSpec(), 1);
  GeneratedStreams g2 = GenerateStreams(d, SmallSpec(), SmallSpec(), 2);
  int differing = 0;
  const size_t n = std::min(g1.a.size(), g2.a.size());
  for (size_t i = 0; i < n; ++i) {
    if (g1.a[i].ToString() != g2.a[i].ToString()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(GeneratorTest, ExactTupleCountsAndTerminalEos) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(), SmallSpec(), 7);
  EXPECT_EQ(g.NumTuples(g.a), 500);
  EXPECT_EQ(g.NumTuples(g.b), 500);
  ASSERT_FALSE(g.a.empty());
  EXPECT_TRUE(g.a.back().is_end_of_stream());
  EXPECT_TRUE(g.b.back().is_end_of_stream());
}

TEST(GeneratorTest, PunctuationCountRoughlyMatchesRate) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(10.0), SmallSpec(10.0), 3);
  // ~500/10 = 50 punctuations expected; allow generous Poisson slack.
  EXPECT_GT(g.NumPunctuations(g.a), 25);
  EXPECT_LT(g.NumPunctuations(g.a), 90);
}

TEST(GeneratorTest, PunctuationsAreSound) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(), SmallSpec(), 11);
  ExpectPunctuationsSound(g.a);
  ExpectPunctuationsSound(g.b);
}

TEST(GeneratorTest, PunctuationsAreSoundWithAsymmetricRates) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(10.0), SmallSpec(40.0), 13);
  ExpectPunctuationsSound(g.a);
  ExpectPunctuationsSound(g.b);
  // The slower-punctuating stream emits fewer punctuations.
  EXPECT_GT(g.NumPunctuations(g.a), g.NumPunctuations(g.b));
}

TEST(GeneratorTest, PrefixConditionHolds) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(), SmallSpec(), 17);
  for (const auto* stream : {&g.a, &g.b}) {
    PunctuationSet ps(0, /*validate_prefix=*/true);
    for (const StreamElement& e : *stream) {
      if (e.is_punctuation()) {
        EXPECT_TRUE(ps.Add(e.punctuation(), e.arrival()).ok());
      }
    }
  }
}

TEST(GeneratorTest, ArrivalTimesNonDecreasing) {
  DomainSpec d;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(), SmallSpec(), 19);
  for (const auto* stream : {&g.a, &g.b}) {
    for (size_t i = 1; i < stream->size(); ++i) {
      EXPECT_GE((*stream)[i].arrival(), (*stream)[i - 1].arrival());
    }
  }
}

TEST(GeneratorTest, NoPunctuationsWhenDisabled) {
  DomainSpec d;
  StreamSpec no_punct = SmallSpec();
  no_punct.punct_mean_interarrival_tuples = 0;
  GeneratedStreams g = GenerateStreams(d, no_punct, SmallSpec(), 23);
  EXPECT_EQ(g.NumPunctuations(g.a), 0);
  EXPECT_GT(g.NumPunctuations(g.b), 0);
}

TEST(GeneratorTest, RangeStyleProducesRangeOrConstantPatterns) {
  DomainSpec d;
  StreamSpec spec = SmallSpec(20.0);
  spec.punct_style = PunctStyle::kRange;
  spec.punct_batch = 3;
  GeneratedStreams g = GenerateStreams(d, spec, SmallSpec(), 29);
  int ranges = 0;
  for (const StreamElement& e : g.a) {
    if (!e.is_punctuation()) continue;
    PatternKind kind = e.punctuation().pattern(0).kind();
    EXPECT_TRUE(kind == PatternKind::kRange || kind == PatternKind::kConstant);
    if (kind == PatternKind::kRange) ++ranges;
  }
  EXPECT_GT(ranges, 0);
  ExpectPunctuationsSound(g.a);
}

TEST(GeneratorTest, EnumStyleProducesEnumPatterns) {
  DomainSpec d;
  StreamSpec spec = SmallSpec(20.0);
  spec.punct_style = PunctStyle::kEnumList;
  spec.punct_batch = 4;
  GeneratedStreams g = GenerateStreams(d, spec, SmallSpec(), 31);
  int enums = 0;
  for (const StreamElement& e : g.a) {
    if (e.is_punctuation() &&
        e.punctuation().pattern(0).kind() == PatternKind::kEnumList) {
      ++enums;
    }
  }
  EXPECT_GT(enums, 0);
  ExpectPunctuationsSound(g.a);
}

TEST(GeneratorTest, FlushCoversAllKeys) {
  DomainSpec d;
  StreamSpec spec = SmallSpec(10.0);
  spec.flush_punctuations_at_end = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 37);
  for (const auto* stream : {&g.a, &g.b}) {
    PunctuationSet ps(0);
    for (const StreamElement& e : *stream) {
      if (e.is_punctuation()) {
        ASSERT_TRUE(ps.Add(e.punctuation(), e.arrival()).ok());
      }
    }
    for (const StreamElement& e : *stream) {
      if (e.is_tuple()) {
        EXPECT_TRUE(ps.SetMatchKey(e.tuple().field(0)))
            << "unflushed key " << e.tuple().ToString();
      }
    }
  }
}

TEST(GeneratorTest, StreamsShareTheKeyDomain) {
  DomainSpec d;
  d.window_size = 10;
  GeneratedStreams g = GenerateStreams(d, SmallSpec(), SmallSpec(), 41);
  // With a shared sliding window, a good fraction of keys must appear in
  // both streams (this is what makes the join many-to-many).
  std::set<int64_t> keys_a;
  std::set<int64_t> keys_b;
  for (const StreamElement& e : g.a) {
    if (e.is_tuple()) keys_a.insert(e.tuple().field(0).AsInt64());
  }
  for (const StreamElement& e : g.b) {
    if (e.is_tuple()) keys_b.insert(e.tuple().field(0).AsInt64());
  }
  std::vector<int64_t> common;
  std::set_intersection(keys_a.begin(), keys_a.end(), keys_b.begin(),
                        keys_b.end(), std::back_inserter(common));
  EXPECT_GT(common.size(), keys_a.size() / 2);
}

TEST(GeneratorTest, ClusteredArrivalIsContiguousAndSound) {
  DomainSpec d;
  d.window_size = 10;
  StreamSpec spec = SmallSpec(15.0);
  spec.clustered = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 47);
  ExpectPunctuationsSound(g.a);
  ExpectPunctuationsSound(g.b);
  // Keys arrive in non-decreasing runs (clusters).
  for (const auto* stream : {&g.a, &g.b}) {
    int64_t last_key = -1;
    for (const StreamElement& e : *stream) {
      if (!e.is_tuple()) continue;
      const int64_t key = e.tuple().field(0).AsInt64();
      EXPECT_GE(key, last_key);
      last_key = key;
    }
  }
  EXPECT_GT(g.NumPunctuations(g.a), 0);
}

TEST(GeneratorTest, ClusteredPunctuationFollowsClusterClosely) {
  DomainSpec d;
  StreamSpec spec = SmallSpec(15.0);
  spec.clustered = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 53);
  // For each punctuated key, the punctuation appears within a few elements
  // of the key's last tuple (cluster-boundary semantics), not an arbitrary
  // Poisson delay later.
  const auto& stream = g.a;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!stream[i].is_punctuation()) continue;
    const Pattern& p = stream[i].punctuation().pattern(0);
    if (!p.IsConstant()) continue;
    // Find the last tuple with this key before the punctuation.
    ptrdiff_t last_tuple = -1;
    for (size_t j = 0; j < i; ++j) {
      if (stream[j].is_tuple() && stream[j].tuple().field(0) == p.constant()) {
        last_tuple = static_cast<ptrdiff_t>(j);
      }
    }
    if (last_tuple < 0) continue;  // key never sampled by this stream
    // Elements between the cluster end and its punctuation belong to at
    // most one newer cluster; allow a small constant slack.
    EXPECT_LT(static_cast<ptrdiff_t>(i) - last_tuple, 60)
        << "punctuation for " << p.ToString() << " lags its cluster";
  }
}

TEST(GeneratorTest, ZipfSkewConcentratesOnNewKeysAndStaysSound) {
  DomainSpec d;
  d.window_size = 10;
  StreamSpec spec = SmallSpec(15.0);
  spec.zipf_s = 1.5;
  GeneratedStreams skewed = GenerateStreams(d, spec, spec, 71);
  ExpectPunctuationsSound(skewed.a);
  ExpectPunctuationsSound(skewed.b);

  StreamSpec uniform_spec = SmallSpec(15.0);
  GeneratedStreams uniform = GenerateStreams(d, uniform_spec, uniform_spec,
                                             71);
  // Recency gap: distance between a tuple's key and the largest key seen so
  // far (a proxy for the offset from the window's newest edge). Zipf skew
  // towards new keys must shrink the mean gap substantially.
  auto mean_gap = [](const std::vector<StreamElement>& s) {
    int64_t running_max = 0;
    double total = 0;
    int64_t n = 0;
    for (const auto& e : s) {
      if (!e.is_tuple()) continue;
      const int64_t key = e.tuple().field(0).AsInt64();
      running_max = std::max(running_max, key);
      total += static_cast<double>(running_max - key);
      ++n;
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  EXPECT_LT(mean_gap(skewed.a) * 1.5, mean_gap(uniform.a));
}

}  // namespace
}  // namespace pjoin

#include <gtest/gtest.h>

#include "join/hash_state.h"
#include "join/tuple_entry.h"

namespace pjoin {
namespace {

SchemaPtr MixedSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"f", ValueType::kFloat64},
                       {"n", ValueType::kInt64}});
}

TEST(TupleEntryTest, SerializeRoundtrip) {
  SchemaPtr schema = MixedSchema();
  TupleEntry entry;
  entry.tuple = Tuple(schema, {Value(int64_t{42}), Value("hello world"),
                               Value(2.718), Value::Null()});
  entry.ats = 7;
  entry.dts = 99;
  entry.pid = 5;

  std::string record = entry.Serialize();
  auto back = TupleEntry::Deserialize(record, schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ats, 7);
  EXPECT_EQ(back->dts, 99);
  EXPECT_EQ(back->pid, 5);
  EXPECT_EQ(back->tuple, entry.tuple);
  EXPECT_TRUE(back->tuple.field(3).is_null());
}

TEST(TupleEntryTest, DefaultsAreAlive) {
  TupleEntry entry;
  EXPECT_TRUE(entry.InMemory());
  EXPECT_EQ(entry.pid, kNullPid);
}

TEST(TupleEntryTest, DeserializeRejectsTruncated) {
  SchemaPtr schema = MixedSchema();
  TupleEntry entry;
  entry.tuple = Tuple(schema, {Value(int64_t{1}), Value("x"), Value(1.0),
                               Value(int64_t{2})});
  std::string record = entry.Serialize();
  auto bad = TupleEntry::Deserialize(
      std::string_view(record).substr(0, record.size() / 2), schema);
  EXPECT_FALSE(bad.ok());
  auto empty = TupleEntry::Deserialize("", schema);
  EXPECT_FALSE(empty.ok());
}

TEST(TupleEntryTest, DeserializeRejectsFieldCountMismatch) {
  SchemaPtr one = Schema::Make({{"a", ValueType::kInt64}});
  TupleEntry entry;
  entry.tuple = Tuple(one, {Value(int64_t{1})});
  std::string record = entry.Serialize();
  auto bad = TupleEntry::Deserialize(record, MixedSchema());
  EXPECT_FALSE(bad.ok());
}

TupleEntry E(int64_t ats, int64_t dts) {
  TupleEntry e;
  e.ats = ats;
  e.dts = dts;
  return e;
}

TEST(IntervalsOverlapTest, BothInMemoryAlwaysOverlap) {
  EXPECT_TRUE(IntervalsOverlap(E(1, kAliveDts), E(100, kAliveDts)));
}

TEST(IntervalsOverlapTest, DisjointIntervals) {
  // a left memory at 5, b arrived at 7: never co-resident.
  EXPECT_FALSE(IntervalsOverlap(E(1, 5), E(7, kAliveDts)));
  EXPECT_FALSE(IntervalsOverlap(E(7, kAliveDts), E(1, 5)));
}

TEST(IntervalsOverlapTest, TouchingBoundaryDoesNotOverlap) {
  // a left at exactly b's arrival tick: b probed memory without a.
  EXPECT_FALSE(IntervalsOverlap(E(1, 5), E(5, kAliveDts)));
}

TEST(IntervalsOverlapTest, ContainedInterval) {
  EXPECT_TRUE(IntervalsOverlap(E(1, 10), E(3, 5)));
}

TEST(JoinedBeforeTest, OverlapCounts) {
  std::vector<int64_t> none;
  EXPECT_TRUE(JoinedBefore(E(1, kAliveDts), none, E(2, kAliveDts), none));
}

TEST(JoinedBeforeTest, DiskProbeJoinsDiskAgainstMemory) {
  // a flushed at 5; probe of a's side at T=10; b has been in memory since 7.
  std::vector<int64_t> probes_a = {10};
  std::vector<int64_t> none;
  EXPECT_TRUE(JoinedBefore(E(1, 5), probes_a, E(7, kAliveDts), none));
  // b arrived after the probe: not joined.
  EXPECT_FALSE(JoinedBefore(E(1, 5), probes_a, E(11, kAliveDts), none));
  // a flushed only after the probe ran (and b arrived later still, so no
  // memory overlap either): not joined.
  std::vector<int64_t> early_probe = {4};
  EXPECT_FALSE(JoinedBefore(E(1, 5), early_probe, E(6, 7), none));
}

TEST(JoinedBeforeTest, ProbeRequiresOppositeInMemoryAtProbeTime) {
  // b was flushed at 8, probe at 10: b was NOT in memory then.
  std::vector<int64_t> probes_a = {10};
  std::vector<int64_t> none;
  EXPECT_FALSE(JoinedBefore(E(1, 5), probes_a, E(7, 8), none));
  // probe at 7: b in memory during [7(arrival)… wait b arrived 7, flushed 8.
  std::vector<int64_t> probes_mid = {7};
  EXPECT_TRUE(JoinedBefore(E(1, 5), probes_mid, E(7, 8), none));
}

TEST(JoinedBeforeTest, SymmetricProbeHistories) {
  // Probe of b's side disk at T=10: b on disk by 6, a in memory since 3.
  std::vector<int64_t> none;
  std::vector<int64_t> probes_b = {10};
  EXPECT_TRUE(JoinedBefore(E(3, kAliveDts), none, E(2, 6), probes_b));
}

TEST(JoinedBeforeTest, MultiProbeBoundaries) {
  // a on disk from 4; b resident over [6, 8). Only a probe T with
  // 6 <= T < 8 joined the pair; the neighbours decide nothing.
  std::vector<int64_t> none;
  EXPECT_FALSE(JoinedBefore(E(1, 4), {2, 5, 8, 9}, E(6, 8), none));
  EXPECT_TRUE(JoinedBefore(E(1, 4), {2, 5, 6, 9}, E(6, 8), none));  // T == ats
  EXPECT_TRUE(JoinedBefore(E(1, 4), {2, 7, 8}, E(6, 8), none));
  EXPECT_FALSE(JoinedBefore(E(1, 4), {8}, E(6, 8), none));  // T == dts
  // A probe at a's own flush tick already sees a on disk.
  EXPECT_TRUE(JoinedBefore(E(1, 4), {3, 4}, E(4, kAliveDts), none));
  EXPECT_FALSE(JoinedBefore(E(1, 4), {1, 3}, E(4, kAliveDts), none));
  // The mirror question searches b's history.
  EXPECT_TRUE(JoinedBefore(E(6, 8), none, E(1, 4), {2, 7, 9}));
  EXPECT_FALSE(JoinedBefore(E(6, 8), none, E(1, 4), {2, 5, 8}));
}

// The definition JoinedBefore must keep: a linear scan of both histories.
bool LinearJoinedBefore(const TupleEntry& a, const std::vector<int64_t>& pa,
                        const TupleEntry& b, const std::vector<int64_t>& pb) {
  if (IntervalsOverlap(a, b)) return true;
  for (int64_t t : pa) {
    if (a.dts <= t && b.ats <= t && t < b.dts) return true;
  }
  for (int64_t t : pb) {
    if (b.dts <= t && a.ats <= t && t < a.dts) return true;
  }
  return false;
}

TEST(JoinedBeforeTest, SearchedHistoryMatchesLinearDefinition) {
  // Every interval with ats < dts <= 8 or still alive, against every sorted
  // probe subset of {0..9} on either side (and its complement on the other).
  std::vector<TupleEntry> intervals;
  for (int64_t ats = 0; ats < 8; ++ats) {
    for (int64_t dts = ats + 1; dts <= 8; ++dts) {
      intervals.push_back(E(ats, dts));
    }
    intervals.push_back(E(ats, kAliveDts));
  }
  constexpr int kTicks = 10;
  std::vector<std::vector<int64_t>> subsets(1u << kTicks);
  for (uint32_t mask = 0; mask < subsets.size(); ++mask) {
    for (int t = 0; t < kTicks; ++t) {
      if (mask & (1u << t)) subsets[mask].push_back(t);
    }
  }
  const std::vector<int64_t> none;
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::string first;
  auto check = [&](const TupleEntry& a, const std::vector<int64_t>& pa,
                   const TupleEntry& b, const std::vector<int64_t>& pb) {
    ++checked;
    if (JoinedBefore(a, pa, b, pb) == LinearJoinedBefore(a, pa, b, pb)) {
      return;
    }
    if (mismatches++ == 0) {
      first = "a=[" + std::to_string(a.ats) + "," + std::to_string(a.dts) +
              ") b=[" + std::to_string(b.ats) + "," + std::to_string(b.dts) +
              ") |pa|=" + std::to_string(pa.size()) +
              " |pb|=" + std::to_string(pb.size());
    }
  };
  for (const TupleEntry& a : intervals) {
    for (const TupleEntry& b : intervals) {
      for (uint32_t mask = 0; mask < subsets.size(); ++mask) {
        const auto& probes = subsets[mask];
        const auto& rest = subsets[(subsets.size() - 1) ^ mask];
        check(a, probes, b, none);
        check(a, none, b, probes);
        check(a, probes, b, rest);
      }
    }
  }
  EXPECT_EQ(checked, static_cast<int64_t>(intervals.size() *
                                          intervals.size() * 3 *
                                          subsets.size()));
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

}  // namespace
}  // namespace pjoin

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "join/hash_state.h"
#include "storage/simulated_disk.h"

namespace pjoin {
namespace {

SchemaPtr KP() {
  return Schema::Make({{"key", ValueType::kInt64}, {"p", ValueType::kInt64}});
}

TupleEntry MakeEntry(const SchemaPtr& s, int64_t key, int64_t payload,
                     int64_t ats) {
  TupleEntry e;
  e.tuple = Tuple(s, {Value(key), Value(payload)});
  e.ats = ats;
  return e;
}

class HashStateTest : public ::testing::Test {
 protected:
  HashStateTest()
      : schema_(KP()),
        state_("test", schema_, 0, 4, std::make_unique<SimulatedDisk>()) {}

  SchemaPtr schema_;
  HashState state_;
};

TEST_F(HashStateTest, InsertAndAccounting) {
  EXPECT_EQ(state_.memory_tuples(), 0);
  state_.InsertMemory(MakeEntry(schema_, 1, 10, 1));
  state_.InsertMemory(MakeEntry(schema_, 2, 20, 2));
  EXPECT_EQ(state_.memory_tuples(), 2);
  EXPECT_EQ(state_.total_tuples(), 2);
  EXPECT_EQ(state_.disk_tuples(), 0);
}

TEST_F(HashStateTest, PartitionOfIsStableAndAligned) {
  const Value key(int64_t{7});
  EXPECT_EQ(state_.PartitionOf(key), state_.PartitionOf(key));
  EXPECT_LT(state_.PartitionOf(key), state_.num_partitions());
  EXPECT_GE(state_.PartitionOf(key), 0);
}

TEST_F(HashStateTest, InsertGoesToKeyPartition) {
  state_.InsertMemory(MakeEntry(schema_, 5, 0, 1));
  const int p = state_.PartitionOf(Value(int64_t{5}));
  ASSERT_EQ(state_.memory(p).size(), 1u);
  EXPECT_EQ(state_.KeyOf(state_.memory(p)[0].tuple).AsInt64(), 5);
}

// Whichever entries go, the compaction keeps the survivors in insertion
// order, their index finds each exactly once, and the accounting equals
// sums recomputed from the entries.
TEST_F(HashStateTest, ExtractMemoryMatching) {
  constexpr int64_t kEntries = 12;
  const std::vector<std::pair<std::string, std::function<bool(int64_t)>>>
      cases = {
          {"none", [](int64_t) { return false; }},
          {"all", [](int64_t) { return true; }},
          {"every other", [](int64_t i) { return i % 2 == 0; }},
          {"only the first", [](int64_t i) { return i == 0; }},
          {"only the last", [](int64_t i) { return i == kEntries - 1; }},
      };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.first);
    const std::function<bool(int64_t)>& extract = c.second;
    HashState st("test", schema_, 0, 4, std::make_unique<SimulatedDisk>());
    // Three keys of one partition share it, so the index holds chains.
    const int p = st.PartitionOf(Value(int64_t{0}));
    std::vector<int64_t> keys;
    for (int64_t k = 0; keys.size() < 3; ++k) {
      if (st.PartitionOf(Value(k)) == p) keys.push_back(k);
    }
    for (int64_t i = 0; i < kEntries; ++i) {
      st.InsertMemory(MakeEntry(schema_, keys[i % 3], i, i));
    }
    const int other = (p + 1) % st.num_partitions();
    int64_t other_key = 0;
    while (st.PartitionOf(Value(other_key)) != other) ++other_key;
    st.InsertMemory(MakeEntry(schema_, other_key, 100, kEntries));

    std::vector<TupleEntry> extracted =
        st.ExtractMemoryMatching(p, [&](const TupleEntry& e) {
          return extract(e.tuple.field(1).AsInt64());
        });

    std::vector<int64_t> want_extracted;
    std::vector<int64_t> want_kept;
    for (int64_t i = 0; i < kEntries; ++i) {
      (extract(i) ? want_extracted : want_kept).push_back(i);
    }
    std::vector<int64_t> got_extracted;
    for (const TupleEntry& e : extracted) got_extracted.push_back(e.ats);
    EXPECT_EQ(got_extracted, want_extracted);
    std::vector<int64_t> got_kept;
    for (const TupleEntry& e : st.memory(p)) got_kept.push_back(e.ats);
    EXPECT_EQ(got_kept, want_kept);

    std::map<int64_t, int> found;
    for (int64_t k : keys) {
      const Value key(k);
      st.ForEachMemoryMatch(p, key, key.Hash(), [&](const TupleEntry& e) {
        EXPECT_EQ(st.KeyOf(e.tuple), key);
        ++found[e.ats];
      });
    }
    std::map<int64_t, int> want_found;
    for (int64_t i : want_kept) want_found[i] = 1;
    EXPECT_EQ(found, want_found);

    int64_t tuples = 0;
    int64_t bytes = 0;
    for (int q = 0; q < st.num_partitions(); ++q) {
      int64_t part_bytes = 0;
      for (const TupleEntry& e : st.memory(q)) {
        part_bytes += static_cast<int64_t>(e.tuple.ByteSize());
      }
      EXPECT_EQ(st.PartitionMemoryBytes(q), part_bytes) << q;
      EXPECT_EQ(st.PartitionMemoryTuples(q),
                static_cast<int64_t>(st.memory(q).size()))
          << q;
      tuples += static_cast<int64_t>(st.memory(q).size());
      bytes += part_bytes;
    }
    EXPECT_EQ(tuples, kEntries - static_cast<int64_t>(want_extracted.size()) +
                          1);
    EXPECT_EQ(st.memory_tuples(), tuples);
    EXPECT_EQ(st.memory_bytes(), bytes);
  }
}

TEST_F(HashStateTest, FlushReadRoundtrip) {
  state_.InsertMemory(MakeEntry(schema_, 1, 10, 1));
  state_.InsertMemory(MakeEntry(schema_, 1, 11, 2));
  const int p = state_.PartitionOf(Value(int64_t{1}));
  ASSERT_TRUE(state_.FlushPartitionToDisk(p, 5).ok());
  EXPECT_EQ(state_.memory_tuples(), 0);
  EXPECT_EQ(state_.disk_tuples(), 2);
  EXPECT_EQ(state_.disk_tuples(p), 2);
  EXPECT_EQ(state_.total_tuples(), 2);
  // Flushed pid-null entries mark their own partition, and only it.
  for (int q = 0; q < state_.num_partitions(); ++q) {
    EXPECT_EQ(state_.has_unindexed_disk(q), q == p) << q;
  }
  EXPECT_TRUE(state_.has_unindexed_disk());

  auto entries = state_.ReadDiskPartition(p);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].dts, 5);
  EXPECT_EQ((*entries)[0].tuple.field(1).AsInt64(), 10);
  EXPECT_EQ((*entries)[1].tuple.field(1).AsInt64(), 11);
}

TEST_F(HashStateTest, FlushEmptyPartitionIsNoop) {
  ASSERT_TRUE(state_.FlushPartitionToDisk(0, 5).ok());
  EXPECT_EQ(state_.disk_tuples(), 0);
  EXPECT_FALSE(state_.has_unindexed_disk(0));
  EXPECT_FALSE(state_.has_unindexed_disk());
}

TEST_F(HashStateTest, FlushIndexedEntriesDoesNotMarkUnindexed) {
  TupleEntry e = MakeEntry(schema_, 1, 10, 1);
  e.pid = 3;
  const int p = state_.PartitionOf(Value(int64_t{1}));
  state_.InsertMemory(std::move(e));
  ASSERT_TRUE(state_.FlushPartitionToDisk(p, 5).ok());
  EXPECT_FALSE(state_.has_unindexed_disk(p));
  EXPECT_FALSE(state_.has_unindexed_disk());
}

TEST_F(HashStateTest, UnindexedMarksArePerPartition) {
  EXPECT_FALSE(state_.has_unindexed_disk());
  state_.set_has_unindexed_disk(1, true);
  state_.set_has_unindexed_disk(3, true);
  EXPECT_TRUE(state_.has_unindexed_disk(1));
  EXPECT_TRUE(state_.has_unindexed_disk(3));
  EXPECT_FALSE(state_.has_unindexed_disk(0));
  EXPECT_FALSE(state_.has_unindexed_disk(2));
  state_.set_has_unindexed_disk(1, false);
  EXPECT_FALSE(state_.has_unindexed_disk(1));
  EXPECT_TRUE(state_.has_unindexed_disk());  // partition 3 still marked
  state_.set_has_unindexed_disk(3, false);
  EXPECT_FALSE(state_.has_unindexed_disk());
}

TEST_F(HashStateTest, RewriteDiskPartition) {
  state_.InsertMemory(MakeEntry(schema_, 1, 10, 1));
  state_.InsertMemory(MakeEntry(schema_, 1, 11, 2));
  const int p = state_.PartitionOf(Value(int64_t{1}));
  ASSERT_TRUE(state_.FlushPartitionToDisk(p, 5).ok());
  auto entries = state_.ReadDiskPartition(p);
  ASSERT_TRUE(entries.ok());
  std::vector<TupleEntry> survivors = {std::move((*entries)[1])};
  ASSERT_TRUE(state_.RewriteDiskPartition(p, survivors).ok());
  EXPECT_EQ(state_.disk_tuples(p), 1);
  auto again = state_.ReadDiskPartition(p);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), 1u);
  EXPECT_EQ((*again)[0].tuple.field(1).AsInt64(), 11);
  // Rewrite to empty clears.
  ASSERT_TRUE(state_.RewriteDiskPartition(p, {}).ok());
  EXPECT_EQ(state_.disk_tuples(), 0);
}

TEST_F(HashStateTest, PurgeBufferLifecycle) {
  TupleEntry e = MakeEntry(schema_, 1, 10, 1);
  e.dts = 2;
  state_.AddToPurgeBuffer(0, std::move(e));
  EXPECT_EQ(state_.purge_buffer_tuples(), 1);
  EXPECT_EQ(state_.total_tuples(), 1);
  EXPECT_EQ(state_.purge_buffer(0).size(), 1u);
  auto taken = state_.TakePurgeBuffer(0);
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_EQ(state_.purge_buffer_tuples(), 0);
  EXPECT_TRUE(state_.purge_buffer(0).empty());
}

TEST_F(HashStateTest, MemoryBytesAccounting) {
  EXPECT_EQ(state_.memory_bytes(), 0);
  state_.InsertMemory(MakeEntry(schema_, 1, 10, 1));
  state_.InsertMemory(MakeEntry(schema_, 2, 20, 2));
  const int64_t two = state_.memory_bytes();
  EXPECT_GT(two, 0);
  // Flush removes the bytes of the flushed partition.
  const int p = state_.PartitionOf(Value(int64_t{1}));
  ASSERT_TRUE(state_.FlushPartitionToDisk(p, 5).ok());
  EXPECT_LT(state_.memory_bytes(), two);
  // Extraction removes the rest.
  const int p2 = state_.PartitionOf(Value(int64_t{2}));
  state_.ExtractMemoryMatching(p2, [](const TupleEntry&) { return true; });
  EXPECT_EQ(state_.memory_bytes(), 0);
}

TEST_F(HashStateTest, ProbeHistory) {
  EXPECT_TRUE(state_.probe_times(1).empty());
  state_.RecordProbe(1, 42);
  state_.RecordProbe(1, 50);
  EXPECT_EQ(state_.probe_times(1), (std::vector<int64_t>{42, 50}));
  EXPECT_TRUE(state_.probe_times(2).empty());
  // JoinedBefore binary-searches the history: ticks strictly increase.
  EXPECT_DEATH(state_.RecordProbe(1, 50), "PJOIN_DCHECK failed");
  EXPECT_DEATH(state_.RecordProbe(1, 7), "PJOIN_DCHECK failed");
  state_.RecordProbe(2, 7);  // per partition
  EXPECT_EQ(state_.probe_times(2), (std::vector<int64_t>{7}));
}

}  // namespace
}  // namespace pjoin

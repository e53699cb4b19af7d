// Tests for punctuation index building and propagation (paper §3.5),
// including the Theorem 1 safety property.

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
using testing::RunJoin;

JoinOptions PropagateEveryPunct() {
  JoinOptions opts;
  opts.runtime.propagate_count_threshold = 1;
  return opts;
}

TEST(PropagationTest, PunctuationForNeverSeenKeyPropagatesImmediately) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  auto left = ElementsBuilder().Punct(KeyPunct(42)).Finish();
  PJoin join(sa, sb, PropagateEveryPunct());
  auto run = RunJoin(&join, left, ElementsBuilder().Finish());
  ASSERT_EQ(run.punctuations.size(), 1u);
  // Output punctuation constrains the left key and transfers it to the
  // right key column (equi-join).
  const Punctuation& p = run.punctuations[0];
  EXPECT_EQ(p.pattern(0), Pattern::Constant(Value(int64_t{42})));
  EXPECT_EQ(p.pattern(2), Pattern::Constant(Value(int64_t{42})));
  EXPECT_TRUE(p.pattern(1).IsWildcard());
  EXPECT_TRUE(p.pattern(3).IsWildcard());
}

TEST(PropagationTest, HeldBackWhileMatchingTupleInState) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Left punct for key 1 cannot propagate while a left key-1 tuple remains
  // (it could still join future right tuples).
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(KeyPunct(1))
                  .Finish();
  JoinOptions opts = PropagateEveryPunct();
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, ElementsBuilder().Finish());
  EXPECT_TRUE(run.punctuations.empty());
  EXPECT_EQ(join.punct_set(0).size(), 1u);
}

TEST(PropagationTest, ReleasedOncePurgeDrainsMatchingTuples) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Left: tuple key 1, then punct key 1. Right: punct key 1 (purges the left
  // tuple) -> left punct becomes propagable.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 1, 0))
                  .Punct(KeyPunct(1))
                  .Finish();
  auto right = ElementsBuilder(/*step=*/10000).Punct(KeyPunct(1)).Finish();
  PJoin join(sa, sb, PropagateEveryPunct());
  auto run = RunJoin(&join, left, right);
  // Both input punctuations propagate: the left one (state drained by the
  // right punctuation's purge) and the right one (no right tuples at all).
  EXPECT_EQ(run.punctuations.size(), 2u);
  EXPECT_TRUE(join.punct_set(0).empty());
  EXPECT_TRUE(join.punct_set(1).empty());
}

TEST(PropagationTest, Theorem1NoResultAfterPropagatedPunct) {
  // Property check over a full generated run: once PJoin emits an output
  // punctuation, no later result tuple may match it.
  DomainSpec d;
  d.window_size = 8;
  StreamSpec spec;
  spec.num_tuples = 600;
  spec.punct_mean_interarrival_tuples = 10;
  spec.flush_punctuations_at_end = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 5);

  JoinOptions opts = PropagateEveryPunct();
  PJoin join(g.schema_a, g.schema_b, opts);

  std::vector<Punctuation> emitted;
  Status violation = Status::OK();
  join.set_punct_callback(
      [&emitted](const Punctuation& p) { emitted.push_back(p); });
  join.set_result_callback([&](const Tuple& t) {
    for (const Punctuation& p : emitted) {
      if (p.Matches(t)) {
        violation = Status::Internal("result " + t.ToString() +
                                     " violates emitted punctuation " +
                                     p.ToString());
        return;
      }
    }
  });
  JoinPipeline pipe(&join, nullptr);
  ASSERT_TRUE(pipe.Run(g.a, g.b).ok());
  EXPECT_TRUE(violation.ok()) << violation.ToString();
  EXPECT_GT(emitted.size(), 20u);
}

TEST(PropagationTest, OverlapGateBlocksLaterContainingPunct) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Left tuple key 3. Left punct {3} arrives (blocked: tuple in state).
  // Left punct [0,5] arrives later; it contains {3}. Although no tuple was
  // ever *indexed* to [0,5], it must not propagate while {3} is blocked —
  // the key-3 tuple matches it.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 3, 0))
                  .Punct(KeyPunct(3))
                  .Punct(Punctuation::ForAttribute(
                      2, 0,
                      Pattern::Range(Value(int64_t{0}), Value(int64_t{5}))))
                  .Finish();
  JoinOptions opts = PropagateEveryPunct();
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, ElementsBuilder().Finish());
  EXPECT_TRUE(run.punctuations.empty());
  EXPECT_EQ(join.punct_set(0).size(), 2u);
}

TEST(PropagationTest, DisjointPunctNotBlockedByEarlierHeldPunct) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  // Punct {3} is blocked by a key-3 tuple; punct {7} (no key-7 tuples) is
  // disjoint and must still propagate.
  auto left = ElementsBuilder()
                  .Tup(KP(sa, 3, 0))
                  .Punct(KeyPunct(3))
                  .Punct(KeyPunct(7))
                  .Finish();
  JoinOptions opts = PropagateEveryPunct();
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  auto run = RunJoin(&join, left, ElementsBuilder().Finish());
  ASSERT_EQ(run.punctuations.size(), 1u);
  EXPECT_EQ(run.punctuations[0].pattern(0),
            Pattern::Constant(Value(int64_t{7})));
}

TEST(PropagationTest, EagerAndLazyIndexBuildAgree) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = 400;
  spec.punct_mean_interarrival_tuples = 12;
  spec.flush_punctuations_at_end = true;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 23);

  auto run_with = [&](bool eager) {
    JoinOptions opts = PropagateEveryPunct();
    opts.eager_index_build = eager;
    PJoin join(g.schema_a, g.schema_b, opts);
    auto run = RunJoin(&join, g.a, g.b);
    return std::make_pair(run.results, run.punctuations.size());
  };
  auto [eager_results, eager_puncts] = run_with(true);
  auto [lazy_results, lazy_puncts] = run_with(false);
  EXPECT_EQ(eager_results, lazy_results);
  EXPECT_EQ(eager_puncts, lazy_puncts);
}

TEST(PropagationTest, EagerPropagationReleasesAtPurgeTime) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.purge_threshold = 1;
  opts.eager_index_build = true;
  opts.eager_propagation = true;
  opts.propagate_on_finish = false;  // make eager release observable
  PJoin join(sa, sb, opts);
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });

  // Left tuple + left punct for key 1: held (tuple in state).
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(KP(sa, 1, 0), 1000))
                  .ok());
  ASSERT_TRUE(join.OnElement(
                      0, StreamElement::MakePunctuation(KeyPunct(1), 2000))
                  .ok());
  EXPECT_TRUE(puncts.empty());
  // Right punct for key 1 purges the left tuple; the eager propagation
  // releases the left punctuation within the same arrival — no later push
  // or pull trigger needed.
  ASSERT_TRUE(join.OnElement(
                      1, StreamElement::MakePunctuation(KeyPunct(1), 3000))
                  .ok());
  EXPECT_EQ(puncts.size(), 2u);  // left punct + right punct (empty state)
}

TEST(PropagationTest, PullModePropagatesOnRequest) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;  // no push triggers
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });

  ASSERT_TRUE(join.OnElement(0, StreamElement::MakePunctuation(
                                    KeyPunct(9), 1000, 0))
                  .ok());
  EXPECT_TRUE(puncts.empty());  // nothing propagates without a trigger
  ASSERT_TRUE(join.RequestPropagation().ok());
  EXPECT_EQ(puncts.size(), 1u);
}

TEST(PropagationTest, TimeThresholdTriggersPropagation) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.propagate_time_threshold = 5000;  // 5 ms of stream time
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });

  ASSERT_TRUE(join.OnElement(0, StreamElement::MakePunctuation(
                                    KeyPunct(9), 1000, 0))
                  .ok());
  EXPECT_TRUE(puncts.empty());
  // A later tuple advances stream time past the threshold.
  ASSERT_TRUE(join.OnElement(1, StreamElement::MakeTuple(
                                    KP(sb, 1, 0), 7000, 0))
                  .ok());
  EXPECT_EQ(puncts.size(), 1u);
}

TEST(PropagationTest, SpilledTuplesBlockPropagationUntilDiskJoin) {
  SchemaPtr sa = KeyPayloadSchema("a");
  SchemaPtr sb = KeyPayloadSchema("b");
  JoinOptions opts;
  opts.runtime.memory_threshold_tuples = 4;
  opts.runtime.propagate_count_threshold = 1;
  opts.propagate_on_finish = false;
  PJoin join(sa, sb, opts);
  std::vector<Punctuation> puncts;
  join.set_punct_callback(
      [&puncts](const Punctuation& p) { puncts.push_back(p); });

  // 8 left tuples with key 1: some spill to disk (pid unassigned there).
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(join.OnElement(0, StreamElement::MakeTuple(
                                      KP(sa, 1, i), 1000 * (i + 1), i))
                    .ok());
  }
  ASSERT_GT(join.state(0).disk_tuples(), 0);
  // Left punct for key 1: must NOT propagate (8 tuples in state, some on
  // disk). The propagation trigger forces a disk pass to index them.
  ASSERT_TRUE(join.OnElement(0, StreamElement::MakePunctuation(
                                    KeyPunct(1), 20000, 8))
                  .ok());
  EXPECT_TRUE(puncts.empty());
  EXPECT_FALSE(join.state(0).has_unindexed_disk());  // pass ran
  // The punctuation's count now reflects every key-1 tuple incl. disk.
  const PunctEntry* entry = join.punct_set(0).Find(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->match_count, 8);
}

// Drives one PJoin element by element in pull mode, under a cap of four
// in-memory tuples, to observe which partitions the disk join before a
// propagation visits.
class PrePropagationPassTest : public ::testing::Test {
 protected:
  void Start(int64_t purge_threshold = 1) {
    JoinOptions opts;  // pull mode: propagation runs only on request
    opts.runtime.memory_threshold_tuples = 4;
    opts.runtime.purge_threshold = purge_threshold;
    join_ = std::make_unique<PJoin>(sa_, sb_, opts);
    join_->set_result_callback([this](const Tuple& t) {
      results_.push_back(t.ToString());
      for (const Punctuation& p : released_) {
        if (p.Matches(t)) violation_ = t.ToString() + " after " + p.ToString();
      }
    });
    join_->set_punct_callback(
        [this](const Punctuation& p) { released_.push_back(p); });
  }

  const HashState& state(int side) const { return join_->state(side); }
  int PartitionOf(int64_t key) const {
    return state(0).PartitionOf(Value(key));
  }
  /// The smallest key above `key` whose partition satisfies `accept`.
  template <typename Pred>
  int64_t KeyAfter(int64_t key, Pred accept) const {
    do {
      ++key;
    } while (!accept(PartitionOf(key)));
    return key;
  }

  void Feed(int side, StreamElement e) {
    fed_[side].push_back(e);
    ASSERT_TRUE(join_->OnElement(side, e).ok());
  }
  void Tup(int side, int64_t key, int64_t payload) {
    Feed(side, StreamElement::MakeTuple(
                   KP(side == 0 ? sa_ : sb_, key, payload), now_ += 1000,
                   seq_++));
  }
  void Punct(int side, Pattern key_pattern) {
    Feed(side, StreamElement::MakePunctuation(
                   Punctuation::ForAttribute(2, 0, std::move(key_pattern)),
                   now_ += 1000, seq_++));
  }
  /// Pages both states read during one pull-mode propagation.
  int64_t PropagationPages() {
    auto pages = [this] {
      return state(0).io_stats().pages_read + state(1).io_stats().pages_read;
    };
    const int64_t before = pages();
    EXPECT_TRUE(join_->RequestPropagation().ok());
    return pages() - before;
  }
  /// Ends both streams. The results must equal the nested-loop reference,
  /// and no result may follow a released punctuation that covers it.
  void FinishAndCheck() {
    Feed(0, StreamElement::MakeEndOfStream(now_ += 1000, seq_++));
    Feed(1, StreamElement::MakeEndOfStream(now_ += 1000, seq_++));
    std::sort(results_.begin(), results_.end());
    EXPECT_EQ(results_, testing::ReferenceJoinRows(
                            fed_[0], fed_[1], join_->output_schema(), 0, 0));
    EXPECT_TRUE(violation_.empty()) << violation_;
  }

  SchemaPtr sa_ = KeyPayloadSchema("a");
  SchemaPtr sb_ = KeyPayloadSchema("b");
  std::unique_ptr<PJoin> join_;
  std::vector<StreamElement> fed_[2];
  std::vector<std::string> results_;
  std::vector<Punctuation> released_;
  std::string violation_;
  TimeMicros now_ = 0;
  int64_t seq_ = 0;
};

TEST_F(PrePropagationPassTest, ReadsOnlyPartitionsThePunctuationReaches) {
  Start();
  // Three keys in three different partitions.
  const int64_t k1 = 1;
  const int p1 = PartitionOf(k1);
  const int64_t k2 = KeyAfter(k1, [&](int p) { return p != p1; });
  const int p2 = PartitionOf(k2);
  const int64_t k3 =
      KeyAfter(k2, [&](int p) { return p != p1 && p != p2; });
  const int p3 = PartitionOf(k3);
  const HashState& left = state(0);

  // Four left tuples per key reach the cap: each key's partition spills as
  // one batch, so all three take the same number of pages.
  for (int64_t key : {k1, k2, k3}) {
    for (int i = 0; i < 4; ++i) Tup(0, key, i);
  }
  ASSERT_EQ(left.disk_tuples(p1), 4);
  ASSERT_EQ(left.disk_tuples(p2), 4);
  ASSERT_EQ(left.disk_tuples(p3), 4);
  const int64_t all_pages = PropagationPages();  // indexes the flushes
  ASSERT_GT(all_pages, 0);
  ASSERT_EQ(all_pages % 3, 0);
  const int64_t pages_per_partition = all_pages / 3;
  EXPECT_FALSE(left.has_unindexed_disk());

  // Right tuples now wait in memory for their left matches on disk.
  Tup(1, k1, 100);
  Tup(1, k2, 200);
  EXPECT_TRUE(results_.empty());

  // A constant punctuation reaches only its key's partition: here it
  // indexes the left disk tuples of k3 ...
  Punct(0, Pattern::Constant(Value(k3)));
  EXPECT_TRUE(left.has_unindexed_disk(p3));
  EXPECT_FALSE(left.has_unindexed_disk(p1));
  EXPECT_FALSE(left.has_unindexed_disk(p2));
  EXPECT_EQ(PropagationPages(), pages_per_partition);
  EXPECT_TRUE(results_.empty());
  EXPECT_EQ(left.disk_tuples(p3), 4);

  // ... and from the right stream it makes the left disk tuples of k1
  // purgeable.
  Punct(1, Pattern::Constant(Value(k1)));
  EXPECT_TRUE(left.has_unindexed_disk(p1));
  EXPECT_FALSE(left.has_unindexed_disk(p2));
  EXPECT_FALSE(left.has_unindexed_disk(p3));
  EXPECT_EQ(PropagationPages(), pages_per_partition);
  EXPECT_EQ(results_.size(), 4u);  // k1's pending pairs, joined once
  EXPECT_EQ(left.disk_tuples(p1), 0);

  // A range punctuation reaches every partition holding disk tuples, even
  // where it covers no key.
  Punct(1, Pattern::Range(Value(k2 - 1), Value(k2)));  // k3 > k2
  EXPECT_TRUE(left.has_unindexed_disk(p2));
  EXPECT_TRUE(left.has_unindexed_disk(p3));
  EXPECT_EQ(PropagationPages(), 2 * pages_per_partition);
  EXPECT_EQ(results_.size(), 8u);
  EXPECT_EQ(left.disk_tuples(p2), 0);
  EXPECT_EQ(left.disk_tuples(p3), 4);

  // Closing the left keys drains the right state: both right punctuations
  // are released.
  Punct(0, Pattern::Range(Value(int64_t{0}), Value(k1 + k2 + k3)));
  ASSERT_TRUE(join_->RequestPropagation().ok());
  EXPECT_EQ(released_.size(), 2u);
  FinishAndCheck();
}

TEST_F(PrePropagationPassTest, VisitsUnmarkedPartitionWithPurgeBuffer) {
  Start(/*purge_threshold=*/3);
  const int64_t k = 1;
  const int p = PartitionOf(k);
  const int64_t k_same = KeyAfter(k, [&](int q) { return q == p; });
  const int64_t k_other = KeyAfter(k, [&](int q) { return q != p; });
  const int q = PartitionOf(k_other);

  // The left disk holds q, the right disk holds p with keys that no
  // punctuation covers.
  for (int i = 0; i < 4; ++i) Tup(0, k_other, i);
  for (int i = 0; i < 4; ++i) Tup(1, k_same, i);
  ASSERT_EQ(state(0).disk_tuples(q), 4);
  ASSERT_EQ(state(1).disk_tuples(p), 4);
  Tup(0, k, 0);
  Tup(1, k, 0);
  Punct(1, Pattern::Constant(Value(k)));
  Punct(0, Pattern::Constant(Value(k)));
  ASSERT_TRUE(join_->RequestPropagation().ok());
  EXPECT_TRUE(released_.empty());  // each k punctuation holds a k tuple

  // The third punctuation reaches only q, and runs the lazy purge. The
  // purge parks the left k tuple in p's purge buffer, because the right
  // disk in p may still match it.
  Punct(0, Pattern::Constant(Value(k_other)));
  ASSERT_EQ(state(0).purge_buffer(p).size(), 1u);
  EXPECT_FALSE(state(0).has_unindexed_disk(p));
  EXPECT_FALSE(state(1).has_unindexed_disk(p));
  EXPECT_TRUE(state(0).has_unindexed_disk(q));

  // The pass visits p for its buffer, so the left k punctuation is
  // released together with the right one.
  ASSERT_TRUE(join_->RequestPropagation().ok());
  EXPECT_TRUE(state(0).purge_buffer(p).empty());
  EXPECT_EQ(released_.size(), 2u);
  FinishAndCheck();
}

}  // namespace
}  // namespace pjoin

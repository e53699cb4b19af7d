// Tests for the runtime repartitioning layer (ops/repartition.h) and its
// integration into the parallel pipeline: shard-map unit semantics, the
// space-saving hot-key detector, and the replication oracle — for skewed
// streams with mid-stream hot-key replication, the adaptive pipeline's
// merged output must equal the single-threaded reference with zero lost or
// duplicated results and exactly-once punctuation release, never ahead of
// a covered result (§3.3), including when the owner refuses every extract.
// The router routes nothing while an extract is pending, so the handoff
// decisions replay from the seed.

#include "ops/repartition.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "obs/metrics_registry.h"
#include "ops/parallel_pipeline.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::GatedPJoin;
using testing::KeyPayloadSchema;
using testing::KeyPunct;
using testing::KP;
using testing::ReferenceJoinRows;
using testing::ReleaseOrderChecker;
using testing::TestGate;

/// Canonicalized pipeline output: sorted result rows and sorted released
/// punctuation strings (multiset comparisons across runs).
struct CanonicalOut {
  std::vector<std::string> results;
  std::vector<std::string> punctuations;
};

// ---- ShardMap ----

TEST(ShardMapTest, StaticMappingIsStableAndInRange) {
  ShardMap map(4);
  for (uint64_t h = 0; h < 1000; ++h) {
    const int shard = map.OwnerOf(h);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, map.OwnerOf(h)) << "must be deterministic";
  }
}

TEST(ShardMapTest, ReplicationSpraysRoundRobin) {
  ShardMap map(3);
  const uint64_t h = 42;
  EXPECT_FALSE(map.IsReplicated(h));
  map.MarkReplicated(h, /*spray_side=*/1);
  EXPECT_TRUE(map.IsReplicated(h));
  EXPECT_EQ(map.SpraySideOf(h), 1);
  EXPECT_EQ(map.replicated_keys(), 1);
  // The spray cursor walks every shard before repeating.
  std::vector<int> seen;
  for (int i = 0; i < 6; ++i) seen.push_back(map.NextSprayShard(h));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

// ---- HotKeyDetector ----

TEST(HotKeyDetectorTest, DominantKeySurfacesInTopK) {
  HotKeyDetector detector(/*capacity=*/4, /*num_shards=*/2);
  // One key with half the stream, 32 distinct background keys fighting
  // over the remaining sketch slots.
  for (int i = 0; i < 256; ++i) {
    detector.Observe(Value(int64_t{7}), /*key_hash=*/7, /*side=*/0);
    const int64_t bg = 100 + (i % 32);
    detector.Observe(Value(bg), static_cast<uint64_t>(bg), /*side=*/1);
  }
  const std::vector<HotKeyDetector::Entry> top = detector.TopK();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].key_hash, 7u);
  // Space-saving bounds: estimate >= true count, estimate - error <= true.
  EXPECT_GE(top[0].count, 256);
  EXPECT_LE(top[0].count - top[0].error, 256);
  EXPECT_GT(top[0].side_count[0], top[0].side_count[1]);
}

TEST(HotKeyDetectorTest, WindowImbalanceTracksLoadsAndResets) {
  HotKeyDetector detector(4, /*num_shards=*/4);
  EXPECT_DOUBLE_EQ(detector.WindowImbalance(), 0.0);
  for (int i = 0; i < 60; ++i) detector.ObserveRouted(0);
  for (int s = 1; s < 4; ++s) {
    for (int i = 0; i < 20; ++i) detector.ObserveRouted(s);
  }
  // max=60, mean=30 -> 2.0.
  EXPECT_DOUBLE_EQ(detector.WindowImbalance(), 2.0);
  EXPECT_EQ(detector.window_tuples(), 120);
  detector.ResetWindow();
  EXPECT_EQ(detector.window_tuples(), 0);
}

// ---- Pipeline integration: the replication oracle ----

JoinOptions MemoryOnlyOptions() {
  // Keys stay memory-resident so their state is handoff-eligible (disk
  // spill / purge-buffer residue makes ExtractKeyState refuse, which is
  // its own test below via the rejected-handoff path).
  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.purge_threshold = 1;
  opts.runtime.propagate_count_threshold = 1;
  return opts;
}

struct ParallelRun {
  CanonicalOut out;
  std::unique_ptr<ParallelJoinPipeline> pipeline;
};

/// Runs `Join` (a PJoin) on every shard.
template <typename Join = PJoin>
ParallelRun RunPipeline(const SchemaPtr& left_schema,
                        const SchemaPtr& right_schema,
                        const JoinOptions& jopts,
                        const std::vector<StreamElement>& left,
                        const std::vector<StreamElement>& right,
                        ParallelPipelineOptions popts) {
  ParallelRun run;
  run.pipeline = std::make_unique<ParallelJoinPipeline>(
      [&](int) {
        return std::make_unique<Join>(left_schema, right_schema, jopts);
      },
      popts);
  ReleaseOrderChecker order;
  run.pipeline->set_result_callback([&run, &order](const Tuple& t) {
    run.out.results.push_back(t.ToString());
    order.OnResult(t);
  });
  run.pipeline->set_punct_callback([&run, &order](const Punctuation& p) {
    run.out.punctuations.push_back(p.ToString());
    order.OnPunct(p);
  });
  const Status st = run.pipeline->Run(left, right);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(order.violations(), 0)
      << "results emitted after a released punctuation covering them";
  std::sort(run.out.results.begin(), run.out.results.end());
  std::sort(run.out.punctuations.begin(), run.out.punctuations.end());
  return run;
}

GeneratedStreams SkewedStreams(uint64_t seed, double zipf_s,
                               int64_t num_tuples) {
  DomainSpec domain;
  domain.window_size = 16;
  // Stream A is the skewed one (celebrity keys), B stays uniform — the
  // textbook skew shape, and it keeps the join fan-out bounded.
  StreamSpec spec_a;
  spec_a.num_tuples = num_tuples;
  spec_a.punct_mean_interarrival_tuples = 40.0;
  spec_a.zipf_s = zipf_s;
  spec_a.flush_punctuations_at_end = true;
  StreamSpec spec_b = spec_a;
  spec_b.zipf_s = 0.0;
  return GenerateStreams(domain, spec_a, spec_b, seed);
}

// The replication oracle: a skewed stream whose hot keys are replicated
// mid-stream must produce exactly the single-threaded reference result
// multiset, and the released punctuation multiset of a static run of the
// same pipeline (exactly-once: no result lost or duplicated across the
// replicas, every dispatched punctuation round released exactly once).
// The router finishes each handoff before it routes the next element, so
// with imbalance_trigger 1.0 the decisions depend on the input alone:
// every run of a seed makes the same handoffs, with the same outcomes.
TEST(RepartitionOracleTest, MidStreamReplicationMatchesReferenceAcrossSeeds) {
  constexpr int kRunsPerSeed = 3;
  for (const uint64_t seed : {11u, 42u, 77u, 1234u}) {
    GeneratedStreams streams = SkewedStreams(seed, /*zipf_s=*/1.2,
                                             /*num_tuples=*/2000);
    const JoinOptions jopts = MemoryOnlyOptions();
    const std::vector<std::string> reference = ReferenceJoinRows(
        streams.a, streams.b,
        PJoin(streams.schema_a, streams.schema_b, jopts).output_schema(), 0,
        0);

    ParallelPipelineOptions static_opts;
    static_opts.num_shards = 4;
    static_opts.batch_size = 64;
    ParallelRun static_run =
        RunPipeline(streams.schema_a, streams.schema_b, jopts, streams.a,
                    streams.b, static_opts);
    EXPECT_EQ(static_run.out.results, reference) << "seed=" << seed;

    ParallelPipelineOptions adaptive_opts = static_opts;
    adaptive_opts.repartition.enabled = true;
    adaptive_opts.repartition.sample_every = 1;
    adaptive_opts.repartition.check_interval = 128;
    adaptive_opts.repartition.min_tuples = 256;
    adaptive_opts.repartition.imbalance_trigger = 1.0;
    adaptive_opts.repartition.hot_fraction = 0.05;
    ParallelRun first;
    for (int run = 0; run < kRunsPerSeed; ++run) {
      ParallelRun adaptive =
          RunPipeline(streams.schema_a, streams.schema_b, jopts, streams.a,
                      streams.b, adaptive_opts);
      EXPECT_EQ(adaptive.out.results, reference)
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.out.punctuations, static_run.out.punctuations)
          << "seed=" << seed << " run=" << run;
      EXPECT_GT(adaptive.pipeline->hot_keys_active(), 0)
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.pipeline->handoffs_started(),
                adaptive.pipeline->hot_keys_active() +
                    adaptive.pipeline->migration_rollbacks())
          << "seed=" << seed << " run=" << run;
      if (run == 0) {
        first = std::move(adaptive);
        continue;
      }
      // Reproducible from the seed: the same handoffs, the same outcome.
      EXPECT_EQ(adaptive.pipeline->handoffs_started(),
                first.pipeline->handoffs_started())
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.pipeline->hot_keys_active(),
                first.pipeline->hot_keys_active())
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.pipeline->migration_rollbacks(),
                first.pipeline->migration_rollbacks())
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.out.results, first.out.results)
          << "seed=" << seed << " run=" << run;
      EXPECT_EQ(adaptive.out.punctuations, first.out.punctuations)
          << "seed=" << seed << " run=" << run;
    }
  }
}

// Hot-key replication: one celebrity key dominating the probe stream gets
// replicated (build side broadcast, probe side sprayed); the result
// multiset still equals the reference and the key's punctuation — now a
// broadcast round — is still released exactly once.
TEST(RepartitionOracleTest, HotKeyReplicationMatchesReference) {
  const SchemaPtr sa = KeyPayloadSchema("a");
  const SchemaPtr sb = KeyPayloadSchema("b");
  ElementsBuilder left, right;
  const int64_t hot = 7;
  // Left: the hot key dominates (~2/3 of tuples); right: a handful of hot
  // matches plus uniform background.
  for (int i = 0; i < 900; ++i) {
    left.Tup(KP(sa, hot, i));
    if (i % 2 == 0) left.Tup(KP(sa, 100 + (i % 40), i));
  }
  // Hot matches on the right both BEFORE the replication handoff (the
  // early batch) and AFTER it (sprinkled through the background): a late
  // build-side tuple broadcasts to every shard and must pair with the
  // owner's pre-handoff spray state exactly once — installing the spray
  // side's state anywhere else would duplicate those results.
  for (int i = 0; i < 12; ++i) right.Tup(KP(sb, hot, 1000 + i));
  for (int i = 0; i < 400; ++i) {
    right.Tup(KP(sb, 100 + (i % 40), i));
    if (i % 40 == 0) right.Tup(KP(sb, hot, 2000 + i));
  }
  left.Punct(KeyPunct(hot));
  right.Punct(KeyPunct(hot));
  for (int k = 100; k < 140; ++k) {
    left.Punct(KeyPunct(k));
    right.Punct(KeyPunct(k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  const JoinOptions jopts = MemoryOnlyOptions();
  const std::vector<std::string> reference =
      ReferenceJoinRows(l, r, PJoin(sa, sb, jopts).output_schema(), 0, 0);

  ParallelPipelineOptions static_opts;
  static_opts.num_shards = 4;
  static_opts.batch_size = 32;
  ParallelRun static_run = RunPipeline(sa, sb, jopts, l, r, static_opts);
  EXPECT_EQ(static_run.out.results, reference);

  ParallelPipelineOptions adaptive_opts = static_opts;
  adaptive_opts.repartition.enabled = true;
  adaptive_opts.repartition.sample_every = 1;
  adaptive_opts.repartition.check_interval = 128;
  adaptive_opts.repartition.min_tuples = 256;
  adaptive_opts.repartition.imbalance_trigger = 1.05;
  adaptive_opts.repartition.hot_fraction = 0.05;
  ParallelRun adaptive = RunPipeline(sa, sb, jopts, l, r, adaptive_opts);
  EXPECT_EQ(adaptive.out.results, reference);
  EXPECT_EQ(adaptive.out.punctuations, static_run.out.punctuations);
  EXPECT_GT(adaptive.pipeline->hot_keys_active(), 0);
}

/// The first key at or after `from` that `shard` owns at 2 shards.
int64_t KeyOwnedBy(int shard, int64_t from = 0) {
  const ShardMap static_map(2);
  while (static_map.OwnerOf(Value(from).Hash()) != shard) ++from;
  return from;
}

/// Two shards fed one element per batch, whose controller replicates the
/// dominant key once the first `window` tuples are routed.
ParallelPipelineOptions OneWindowReplication(int64_t window,
                                             size_t queue_capacity) {
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  popts.batch_size = 1;
  popts.shard_queue_capacity = queue_capacity;
  popts.repartition.enabled = true;
  popts.repartition.sample_every = 1;
  popts.repartition.check_interval = window;
  popts.repartition.min_tuples = window;
  popts.repartition.imbalance_trigger = 1.05;
  popts.repartition.hot_fraction = 0.05;
  return popts;
}

// A replicated key's constant punctuation is a broadcast round, and the
// board must know that before any shard can release it. Shard 1 owns the
// hot key and keeps the sprayed side's pre-handoff tuples; it is gated with
// a full ring when the punctuation reaches it, so the router drains outputs
// in the middle of dispatching the round and merges shard 0's release
// (shard 0 holds none of the key's left tuples, so it owes nothing). Had
// the round not been recorded before staging, that release alone would
// emit the punctuation ahead of the results shard 1 still owes for the key.
TEST(RepartitionOracleTest, ReplicatedKeyPunctuationWaitsForEveryShard) {
  const SchemaPtr sa = KeyPayloadSchema("a");
  const SchemaPtr sb = KeyPayloadSchema("b");
  const int64_t hot = KeyOwnedBy(/*shard=*/1);
  // One decision window of left tuples, all of the hot key: the controller
  // replicates it with the left side sprayed, and the router routes
  // everything after under the new map.
  constexpr int64_t kWindow = 8;
  std::vector<StreamElement> l;
  std::vector<StreamElement> r;
  for (int64_t i = 0; i < kWindow; ++i) {
    l.push_back(StreamElement::MakeTuple(KP(sa, hot, i), 1000 * (i + 1), i));
  }
  for (int64_t i = 0; i < 3; ++i) {
    r.push_back(
        StreamElement::MakeTuple(KP(sb, hot, 100 + i), 8100 + 100 * i, i));
  }
  l.push_back(StreamElement::MakePunctuation(KeyPunct(hot), 9000, kWindow));
  r.push_back(StreamElement::MakePunctuation(KeyPunct(hot), 9500, 3));
  r.push_back(StreamElement::MakeEndOfStream(9600, 4));
  l.push_back(StreamElement::MakeEndOfStream(10000, kWindow + 1));

  const JoinOptions jopts = MemoryOnlyOptions();
  auto ref_join = std::make_unique<PJoin>(sa, sb, jopts);
  const testing::RunResult ref = testing::RunJoin(ref_join.get(), l, r);

  const ParallelPipelineOptions popts =
      OneWindowReplication(kWindow, /*queue_capacity=*/2);
  TestGate gate;
  ParallelJoinPipeline pipeline(
      [&](int shard) -> std::unique_ptr<JoinOperator> {
        if (shard == 0) return std::make_unique<PJoin>(sa, sb, jopts);
        // Blocks on its first right tuple, routed after the handoff.
        return std::make_unique<GatedPJoin>(sa, sb, jopts, &gate,
                                            /*free_tuples=*/kWindow);
      },
      popts);
  std::vector<std::string> results;
  int64_t puncts = 0;
  ReleaseOrderChecker order;
  std::atomic<bool> emitted{false};
  pipeline.set_result_callback([&](const Tuple& t) {
    results.push_back(t.ToString());
    order.OnResult(t);
  });
  pipeline.set_punct_callback([&](const Punctuation& p) {
    ++puncts;
    order.OnPunct(p);
    emitted.store(true);
  });
  obs::Gauge pending = obs::MetricsRegistry::Global().GetGauge(
      "pjoin_punct_pending_rounds", "pipeline=parallel");
  pending.Set(0);
  // Opens the gate once shard 0's release has reached the merger: the
  // round is then pending on the board (or, on a board that lost the
  // round, already emitted).
  std::thread opener([&] {
    for (int i = 0; i < 10000 && !emitted.load() && pending.Get() == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.Open();
  });
  const Status st = pipeline.Run(l, r);
  opener.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(pipeline.hot_keys_active(), 0);
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, ref.results);
  EXPECT_EQ(order.violations(), 0)
      << "results emitted after a released punctuation covering them";
  EXPECT_EQ(puncts, static_cast<int64_t>(ref.punctuations.size()));
  EXPECT_EQ(pending.Get(), 0);
}

// The router resumes routing as soon as the owner answers: installs get no
// answer, and each sits in its destination's ring ahead of every element
// routed after it. Shard 0, a replication destination, is wedged on an
// earlier tuple of its own before its install reaches it, with rings that
// hold the whole input. The owner must still receive the hot key's
// punctuations, routed after the handoff, and release them, leaving their
// rounds pending on shard 0; a handoff that waited for every destination
// to acknowledge its install would hold those punctuations at the router
// until the gate opens.
TEST(RepartitionOracleTest, HandoffWaitsForNoInstall) {
  const SchemaPtr sa = KeyPayloadSchema("a");
  const SchemaPtr sb = KeyPayloadSchema("b");
  const int64_t hot = KeyOwnedBy(/*shard=*/1);
  const int64_t cold = KeyOwnedBy(/*shard=*/0, hot + 1);
  // One decision window of left tuples: a cold tuple that wedges shard 0,
  // then the hot key, which the controller replicates with the left side
  // sprayed. Everything after is routed under the new map.
  constexpr int64_t kWindow = 8;
  std::vector<StreamElement> l;
  std::vector<StreamElement> r;
  l.push_back(StreamElement::MakeTuple(KP(sa, cold, 0), 1000, 0));
  for (int64_t i = 1; i < kWindow; ++i) {
    l.push_back(StreamElement::MakeTuple(KP(sa, hot, i), 1000 * (i + 1), i));
  }
  for (int64_t i = 0; i < 3; ++i) {
    r.push_back(
        StreamElement::MakeTuple(KP(sb, hot, 100 + i), 8100 + 100 * i, i));
  }
  l.push_back(StreamElement::MakePunctuation(KeyPunct(hot), 9000, kWindow));
  r.push_back(StreamElement::MakePunctuation(KeyPunct(hot), 9500, 3));
  r.push_back(StreamElement::MakeEndOfStream(9600, 4));
  l.push_back(StreamElement::MakeEndOfStream(10000, kWindow + 1));

  const JoinOptions jopts = MemoryOnlyOptions();
  auto ref_join = std::make_unique<PJoin>(sa, sb, jopts);
  const testing::RunResult ref = testing::RunJoin(ref_join.get(), l, r);

  const ParallelPipelineOptions popts =
      OneWindowReplication(kWindow, /*queue_capacity=*/64);
  TestGate gate;
  ParallelJoinPipeline pipeline(
      [&](int shard) -> std::unique_ptr<JoinOperator> {
        // Blocks on its first tuple, the cold one.
        if (shard == 0) {
          return std::make_unique<GatedPJoin>(sa, sb, jopts, &gate,
                                              /*free_tuples=*/0);
        }
        return std::make_unique<PJoin>(sa, sb, jopts);
      },
      popts);
  std::vector<std::string> results;
  int64_t puncts = 0;
  ReleaseOrderChecker order;
  pipeline.set_result_callback([&](const Tuple& t) {
    results.push_back(t.ToString());
    order.OnResult(t);
  });
  pipeline.set_punct_callback([&](const Punctuation& p) {
    ++puncts;
    order.OnPunct(p);
  });
  obs::Gauge pending = obs::MetricsRegistry::Global().GetGauge(
      "pjoin_punct_pending_rounds", "pipeline=parallel");
  pending.Set(0);
  std::atomic<bool> owner_released{false};
  std::thread opener([&] {
    for (int i = 0; i < 10000 && pending.Get() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    owner_released.store(pending.Get() > 0);
    gate.Open();
  });
  const Status st = pipeline.Run(l, r);
  opener.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(owner_released.load())
      << "the owner never released the hot key's punctuation while a "
         "destination was wedged: the handoff waited on the destination";
  EXPECT_GT(pipeline.hot_keys_active(), 0);
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, ref.results);
  EXPECT_EQ(order.violations(), 0)
      << "results emitted after a released punctuation covering them";
  EXPECT_EQ(puncts, static_cast<int64_t>(ref.punctuations.size()));
  EXPECT_EQ(pending.Get(), 0);
}

/// Counts the tuples its shard joins.
class CountingPJoin : public PJoin {
 public:
  CountingPJoin(SchemaPtr left, SchemaPtr right, JoinOptions options,
                std::atomic<int64_t>* tuples)
      : PJoin(std::move(left), std::move(right), std::move(options)),
        tuples_(tuples) {}

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    tuples_->fetch_add(1);
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }

 private:
  std::atomic<int64_t>* tuples_;
};

/// Blocks inside every extract until `gate` opens, after raising
/// `extracting`.
class GatedExtractPJoin : public PJoin {
 public:
  GatedExtractPJoin(SchemaPtr left, SchemaPtr right, JoinOptions options,
                    TestGate* gate, std::atomic<bool>* extracting)
      : PJoin(std::move(left), std::move(right), std::move(options)),
        gate_(gate),
        extracting_(extracting) {}

  Result<KeyStateHandoff> ExtractKeyState(const Value& key) override {
    extracting_->store(true);
    gate_->WaitOpen();
    return PJoin::ExtractKeyState(key);
  }

 private:
  TestGate* gate_;
  std::atomic<bool>* extracting_;
};

// The router routes nothing between pushing an extract and acting on its
// answer. The owner of the hot key, shard 1, blocks inside the extract;
// the cold tuples that arrive after the decision belong to shard 0, which
// must not see one of them until the owner answers. A router that kept
// routing other keys during the handoff would hand them over at once.
TEST(RepartitionOracleTest, RouterRoutesNothingUntilTheOwnerAnswers) {
  const SchemaPtr sa = KeyPayloadSchema("a");
  const SchemaPtr sb = KeyPayloadSchema("b");
  const int64_t hot = KeyOwnedBy(/*shard=*/1);
  const int64_t cold = KeyOwnedBy(/*shard=*/0, hot + 1);
  // One decision window of hot left tuples, then cold tuples on both sides,
  // fewer than a window, so the cold key is never replicated.
  constexpr int64_t kWindow = 8;
  constexpr int64_t kCold = 3;
  std::vector<StreamElement> l;
  std::vector<StreamElement> r;
  for (int64_t i = 0; i < kWindow; ++i) {
    l.push_back(StreamElement::MakeTuple(KP(sa, hot, i), 1000 * (i + 1), i));
  }
  for (int64_t i = 0; i < kCold; ++i) {
    l.push_back(StreamElement::MakeTuple(KP(sa, cold, kWindow + i),
                                         9000 + 100 * i, kWindow + i));
    r.push_back(
        StreamElement::MakeTuple(KP(sb, cold, 100 + i), 9050 + 100 * i, i));
  }
  l.push_back(StreamElement::MakeEndOfStream(10000, kWindow + kCold));
  r.push_back(StreamElement::MakeEndOfStream(10000, kCold));

  const JoinOptions jopts = MemoryOnlyOptions();
  auto ref_join = std::make_unique<PJoin>(sa, sb, jopts);
  const testing::RunResult ref = testing::RunJoin(ref_join.get(), l, r);

  const ParallelPipelineOptions popts =
      OneWindowReplication(kWindow, /*queue_capacity=*/64);
  TestGate gate;
  std::atomic<bool> extracting{false};
  std::atomic<int64_t> cold_shard_tuples{0};
  ParallelJoinPipeline pipeline(
      [&](int shard) -> std::unique_ptr<JoinOperator> {
        if (shard == 0) {
          return std::make_unique<CountingPJoin>(sa, sb, jopts,
                                                 &cold_shard_tuples);
        }
        return std::make_unique<GatedExtractPJoin>(sa, sb, jopts, &gate,
                                                   &extracting);
      },
      popts);
  std::vector<std::string> results;
  pipeline.set_result_callback(
      [&](const Tuple& t) { results.push_back(t.ToString()); });
  int64_t during_extract = -1;
  std::thread opener([&] {
    for (int i = 0; i < 10000 && !extracting.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Time for a router that kept routing to reach shard 0.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    during_extract = cold_shard_tuples.load();
    gate.Open();
  });
  const Status st = pipeline.Run(l, r);
  opener.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(extracting.load());
  EXPECT_EQ(during_extract, 0)
      << "shard 0 joined tuples routed while the owner was extracting";
  EXPECT_EQ(cold_shard_tuples.load(), 2 * kCold);
  EXPECT_EQ(pipeline.hot_keys_active(), 1);
  std::sort(results.begin(), results.end());
  EXPECT_EQ(results, ref.results);
}

/// A PJoin whose owner refuses every handoff, as a real one does when the
/// key's state is not memory-resident.
class RefusingPJoin : public PJoin {
 public:
  using PJoin::PJoin;

  Result<KeyStateHandoff> ExtractKeyState(const Value&) override {
    return Status::FailedPrecondition("handoff refused");
  }
};

// A refused extract aborts the replication before anything moves: the
// run's output is untouched, every handoff is accounted as a rollback, and
// no key is ever replicated.
TEST(RepartitionFaultTest, FailedHandoffRollsBackCleanly) {
  GeneratedStreams streams = SkewedStreams(/*seed=*/99, /*zipf_s=*/1.2,
                                           /*num_tuples=*/2000);
  const JoinOptions jopts = MemoryOnlyOptions();
  const std::vector<std::string> reference = ReferenceJoinRows(
      streams.a, streams.b,
      PJoin(streams.schema_a, streams.schema_b, jopts).output_schema(), 0, 0);

  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  popts.batch_size = 64;
  popts.repartition.enabled = true;
  popts.repartition.sample_every = 1;
  popts.repartition.check_interval = 128;
  popts.repartition.min_tuples = 256;
  popts.repartition.imbalance_trigger = 1.0;
  popts.repartition.hot_fraction = 0.05;
  ParallelRun run = RunPipeline<RefusingPJoin>(
      streams.schema_a, streams.schema_b, jopts, streams.a, streams.b, popts);
  EXPECT_EQ(run.out.results, reference);
  EXPECT_GT(run.pipeline->migration_rollbacks(), 0);
  EXPECT_EQ(run.pipeline->handoffs_started(),
            run.pipeline->migration_rollbacks());
  EXPECT_EQ(run.pipeline->hot_keys_active(), 0);
}

// Disabled policy is byte-for-byte the static pipeline: no handoffs, no
// map mutations, and (trivially) the reference results.
TEST(RepartitionOracleTest, DisabledPolicyNeverRepartitions) {
  GeneratedStreams streams = SkewedStreams(/*seed=*/5, /*zipf_s=*/1.6,
                                           /*num_tuples=*/1000);
  const JoinOptions jopts = MemoryOnlyOptions();
  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  ParallelRun run = RunPipeline(streams.schema_a, streams.schema_b, jopts,
                                streams.a, streams.b, popts);
  EXPECT_EQ(run.pipeline->handoffs_started(), 0);
  EXPECT_EQ(run.pipeline->hot_keys_active(), 0);
}

}  // namespace
}  // namespace pjoin

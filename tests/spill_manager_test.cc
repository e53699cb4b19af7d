// SpillManager tests: victim selection, punctuation-aware early purge, the
// one-write cost of a spill (a spilled partition stays one disk unit), and
// the fault-hardened degradation ladder. Every join-level test is gated by
// a dual-view oracle — the output of the (possibly fault-injected) run must
// equal the nested-loop reference over the clean streams, so no spill
// decision may drop or duplicate a result.

#include "storage/spill_manager.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_spill_store.h"
#include "gen/stream_generator.h"
#include "join/hash_state.h"
#include "join/pjoin.h"
#include "ops/parallel_pipeline.h"
#include "storage/recovering_spill_store.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::KeyPayloadSchema;
using testing::KP;
using testing::ReferenceJoinRows;
using testing::RunJoin;

// ---- Direct manager tests over raw HashStates ----

std::unique_ptr<HashState> MakeState(const char* name, const SchemaPtr& s,
                                     int num_partitions) {
  return std::make_unique<HashState>(name, s, /*key_index=*/0, num_partitions,
                                     std::make_unique<SimulatedDisk>());
}

/// First key >= `from` hashing to partition `p`.
int64_t KeyInPartition(const HashState& state, int p, int64_t from = 0) {
  for (int64_t k = from;; ++k) {
    if (state.PartitionOf(Value(k)) == p) return k;
  }
}

void InsertN(HashState* state, const SchemaPtr& s, int64_t key, int n,
             int64_t first_tick) {
  for (int i = 0; i < n; ++i) {
    TupleEntry e;
    e.tuple = KP(s, key, i);
    e.ats = first_tick + i;
    state->InsertMemory(std::move(e));
  }
}

TEST(SpillManagerTest, AdaptiveSpillsColdPartitionFirst) {
  SchemaPtr s = KeyPayloadSchema();
  auto left = MakeState("a", s, 4);
  auto right = MakeState("b", s, 4);
  const int hot = 0;
  const int cold = 1;
  // Same size, same insertion ticks — only probe recency differs.
  InsertN(left.get(), s, KeyInPartition(*left, hot), 10, 1);
  InsertN(left.get(), s, KeyInPartition(*left, cold), 10, 1);
  left->NotePartitionProbed(hot, 100);

  SpillManager manager(SpillPolicy{}, left.get(), right.get());
  int64_t tick = 200;
  ASSERT_TRUE(manager
                  .EnsureWithinBudget(/*threshold_tuples=*/15,
                                      /*threshold_bytes=*/0,
                                      /*now_tick=*/101, [&] { return tick++; })
                  .ok());
  // The cold partition went to disk; the recently-probed one stayed.
  EXPECT_EQ(left->PartitionMemoryTuples(cold), 0);
  EXPECT_EQ(left->disk_tuples(cold), 10);
  EXPECT_EQ(left->PartitionMemoryTuples(hot), 10);
  EXPECT_EQ(manager.stats().spills, 1);
  EXPECT_EQ(manager.stats().tuples_spilled, 10);
}

TEST(SpillManagerTest, GlobalModeSpillsLargestRegardlessOfHeat) {
  SchemaPtr s = KeyPayloadSchema();
  auto left = MakeState("a", s, 4);
  auto right = MakeState("b", s, 4);
  const int big = 0;
  const int small = 1;
  InsertN(left.get(), s, KeyInPartition(*left, big), 12, 1);
  InsertN(left.get(), s, KeyInPartition(*left, small), 4, 1);
  left->NotePartitionProbed(big, 100);  // hot, but global mode ignores heat

  SpillPolicy policy;
  policy.mode = SpillMode::kGlobalThreshold;
  SpillManager manager(policy, left.get(), right.get());
  int64_t tick = 200;
  ASSERT_TRUE(manager
                  .EnsureWithinBudget(/*threshold_tuples=*/8,
                                      /*threshold_bytes=*/0,
                                      /*now_tick=*/101, [&] { return tick++; })
                  .ok());
  // The paper's rule: largest memory portion flushed first.
  EXPECT_EQ(left->PartitionMemoryTuples(big), 0);
  EXPECT_EQ(left->disk_tuples(big), 12);
  EXPECT_EQ(left->PartitionMemoryTuples(small), 4);
}

TEST(SpillManagerTest, HysteresisOvershootsBelowLowWater) {
  SchemaPtr s = KeyPayloadSchema();
  auto left = MakeState("a", s, 8);
  auto right = MakeState("b", s, 8);
  for (int p = 0; p < 8; ++p) {
    InsertN(left.get(), s, KeyInPartition(*left, p), 4, 1);
  }
  SpillPolicy policy;
  policy.low_water_fraction = 0.5;
  SpillManager manager(policy, left.get(), right.get());
  int64_t tick = 100;
  ASSERT_TRUE(manager
                  .EnsureWithinBudget(/*threshold_tuples=*/30,
                                      /*threshold_bytes=*/0,
                                      /*now_tick=*/50, [&] { return tick++; })
                  .ok());
  // Not "just under 30" — under the 15-tuple low-water mark, so the
  // caller's threshold latch reliably observes below-threshold samples.
  EXPECT_LT(left->memory_tuples(), 15);
  EXPECT_GE(left->memory_tuples(), 15 - 4);
}

// A spill appends each resident record to its partition's disk unit once
// and reads nothing back: the disk join and XJoin's disk stages are the
// only readers, and they read the whole partition.
TEST(SpillManagerTest, SpillWritesEachRecordOnceAndReadsNone) {
  SchemaPtr s = KeyPayloadSchema();
  auto left = MakeState("a", s, 1);
  auto right = MakeState("b", s, 1);
  constexpr int kKeys = 9000;
  for (int64_t k = 0; k < kKeys; ++k) InsertN(left.get(), s, k, 1, k + 1);

  SpillManager manager(SpillPolicy{}, left.get(), right.get());
  int64_t tick = kKeys + 1;
  ASSERT_TRUE(manager
                  .EnsureWithinBudget(/*threshold_tuples=*/100,
                                      /*threshold_bytes=*/0,
                                      /*now_tick=*/tick, [&] { return tick++; })
                  .ok());
  EXPECT_EQ(left->disk_tuples(), kKeys);
  EXPECT_EQ(left->memory_tuples(), 0);
  EXPECT_EQ(left->io_stats().records_written, kKeys);
  EXPECT_EQ(left->io_stats().pages_read, 0);
  auto entries = left->ReadDiskPartition(0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), static_cast<size_t>(kKeys));
}

TEST(SpillManagerTest, FailedSpillQuarantinesThenDegrades) {
  SchemaPtr s = KeyPayloadSchema();
  const int kTarget = 0;
  IoFaultSpec spec;
  spec.target_partition = kTarget;
  spec.partition_write_error_rate = 1.0;  // every write to it fails
  auto injector = std::make_shared<FaultInjector>(7);
  auto store = std::make_unique<FaultySpillStore>(
      std::make_unique<SimulatedDisk>(), spec, injector);
  auto left = std::make_unique<HashState>("a", s, 0, 4, std::move(store));
  auto right = MakeState("b", s, 4);
  // The target partition is by far the largest → always the preferred
  // victim; its spill always fails, so the ladder must quarantine it, spill
  // the healthy partitions instead, and finally degrade.
  InsertN(left.get(), s, KeyInPartition(*left, kTarget), 24, 1);
  for (int p = 1; p < 4; ++p) {
    InsertN(left.get(), s, KeyInPartition(*left, p), 4, 1);
  }

  SpillPolicy policy;
  policy.degrade_failure_threshold = 2;
  policy.quarantine_cooldown = 1;
  SpillManager manager(policy, left.get(), right.get());
  std::vector<std::string> degraded_details;
  manager.set_event_sink([&](const Event& e) {
    if (e.type == EventType::kDegradedMode) degraded_details.push_back(e.detail);
  });
  int64_t tick = 100;
  for (int round = 0; round < 8 && !manager.degraded(); ++round) {
    ASSERT_TRUE(manager
                    .EnsureWithinBudget(/*threshold_tuples=*/8,
                                        /*threshold_bytes=*/0,
                                        /*now_tick=*/50 + round,
                                        [&] { return tick++; })
                    .ok());
  }
  EXPECT_TRUE(manager.degraded());
  EXPECT_EQ(manager.effective_mode(), SpillMode::kGlobalThreshold);
  ASSERT_EQ(degraded_details.size(), 1u);
  EXPECT_NE(degraded_details[0].find("global-threshold"), std::string::npos);
  EXPECT_GE(manager.stats().spill_failures, policy.degrade_failure_threshold);
  // The failed flushes lost nothing: the target partition kept every tuple
  // resident (durable-prefix semantics with an empty prefix).
  EXPECT_EQ(left->PartitionMemoryTuples(kTarget), 24);
  EXPECT_EQ(left->disk_tuples(kTarget), 0);
  // The healthy partitions were spilled in its place.
  EXPECT_GT(manager.stats().spills, 0);
}

// ---- Join-level dual-view oracle tests ----

GeneratedStreams SkewedStreams(uint64_t seed, int64_t num_tuples,
                               double punct_rate, double zipf_s) {
  DomainSpec d;
  StreamSpec spec;
  spec.num_tuples = num_tuples;
  spec.punct_mean_interarrival_tuples = punct_rate;
  spec.zipf_s = zipf_s;
  return GenerateStreams(d, spec, spec, seed);
}

JoinOptions TightMemoryOptions() {
  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.memory_threshold_tuples = 64;
  // Lazy purging: punctuation-dead tuples linger in memory, which is
  // exactly the state the manager's early-purge rung reclaims for free.
  opts.runtime.purge_threshold = 16;
  return opts;
}

// Early purge only pays when tuples are still resident once their key is
// punctuated: the cap must be large relative to a key's lifetime (window *
// punct spacing), and lazy purging must be rare enough not to beat the
// spill path to the dead state.
JoinOptions EarlyPurgeFriendlyOptions() {
  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.memory_threshold_tuples = 192;
  opts.runtime.purge_threshold = 256;  // never reached by this workload
  return opts;
}

TEST(SpillManagerJoinTest, AdaptiveSpillsFewerBytesThanGlobalUnderSkew) {
  GeneratedStreams g = SkewedStreams(17, 1200, 20.0, 1.2);

  JoinOptions adaptive_opts = EarlyPurgeFriendlyOptions();
  PJoin adaptive(g.schema_a, g.schema_b, adaptive_opts);
  auto adaptive_run = RunJoin(&adaptive, g.a, g.b);

  JoinOptions global_opts = EarlyPurgeFriendlyOptions();
  global_opts.spill_policy.mode = SpillMode::kGlobalThreshold;
  PJoin global(g.schema_a, g.schema_b, global_opts);
  auto global_run = RunJoin(&global, g.a, g.b);

  const auto reference =
      ReferenceJoinRows(g.a, g.b, adaptive.output_schema(), 0, 0);
  EXPECT_EQ(adaptive_run.results, reference);
  EXPECT_EQ(global_run.results, reference);

  // The acceptance bar: under skew the adaptive manager writes strictly
  // fewer bytes to disk, and some of the saving is punctuation-dead state
  // purged before ever paying the write.
  EXPECT_GT(adaptive.spill_stats().bytes_early_purged, 0);
  EXPECT_GT(adaptive.spill_stats().early_purge_runs, 0);
  EXPECT_LT(adaptive.spill_stats().bytes_spilled,
            global.spill_stats().bytes_spilled);
  EXPECT_EQ(global.spill_stats().bytes_early_purged, 0);
}

TEST(SpillManagerJoinTest, NoPunctuationSpillPreservesOracle) {
  // No punctuations: everything spilled stays on disk and the end-of-run
  // disk join must read back every record the spills appended.
  GeneratedStreams g = SkewedStreams(23, 600, 0.0, 1.5);

  JoinOptions opts;
  opts.num_partitions = 4;
  opts.runtime.memory_threshold_tuples = 48;
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/8000);

  EXPECT_GT(join.spill_stats().spills, 0);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

// Fault-injected dual view: partition-targeted and transient IO faults
// behind RecoveringSpillStore. Whatever the manager decides — spill, early
// purge, quarantine — the output must equal the clean reference with zero
// records lost.
class SpillFaultOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillFaultOracle, NoLossOrDuplicationUnderInjectedFaults) {
  const uint64_t seed = GetParam();
  GeneratedStreams g = SkewedStreams(seed, 700, 25.0, 1.0);

  IoFaultSpec spec;
  spec.target_partition = static_cast<int>(seed % 8);
  spec.partition_write_error_rate = 0.4;
  spec.partition_read_error_rate = 0.25;
  spec.transient_write_error_rate = 0.1;
  auto injector = std::make_shared<FaultInjector>(seed * 31 + 1);

  std::vector<const RecoveringSpillStore*> stores;
  JoinOptions opts = TightMemoryOptions();
  opts.spill_factory = [&]() -> std::unique_ptr<SpillStore> {
    auto faulty = std::make_unique<FaultySpillStore>(
        std::make_unique<SimulatedDisk>(), spec, injector);
    auto recovering = std::make_unique<RecoveringSpillStore>(
        std::move(faulty), RecoveryOptions{}, nullptr);
    stores.push_back(recovering.get());
    return recovering;
  };
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/8000);

  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0))
      << "seed " << seed;
  for (const RecoveringSpillStore* store : stores) {
    EXPECT_EQ(store->recovery_stats().records_lost, 0);
  }
  // The faults actually fired (otherwise this oracle proves nothing).
  EXPECT_GT(injector->Get("io_partition_write") +
                injector->Get("io_partition_read") +
                injector->Get("io_transient_write"),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillFaultOracle,
                         ::testing::Values(uint64_t{3}, uint64_t{11},
                                           uint64_t{29}, uint64_t{47}));

// Degraded-mode fallback run: a raw (unrecovered) store whose writes to one
// partition always fail. The ladder must quarantine, degrade to
// global-threshold mode, and still produce the exact reference result —
// the failed flushes keep their tuples resident, trading memory for
// correctness.
TEST(SpillManagerJoinTest, DegradedFallbackRunKeepsOracle) {
  GeneratedStreams g = SkewedStreams(5, 500, 0.0, 0.8);

  IoFaultSpec spec;
  spec.target_partition = 2;
  spec.partition_write_error_rate = 1.0;
  auto injector = std::make_shared<FaultInjector>(99);

  JoinOptions opts;
  opts.num_partitions = 8;
  opts.runtime.memory_threshold_tuples = 48;
  opts.spill_policy.degrade_failure_threshold = 2;
  opts.spill_policy.quarantine_cooldown = 1;
  int64_t degraded_events = 0;
  opts.spill_event_sink = [&](const Event& e) {
    if (e.type == EventType::kDegradedMode) ++degraded_events;
  };
  opts.spill_factory = [&]() -> std::unique_ptr<SpillStore> {
    return std::make_unique<FaultySpillStore>(
        std::make_unique<SimulatedDisk>(), spec, injector);
  };
  PJoin join(g.schema_a, g.schema_b, opts);
  auto run = RunJoin(&join, g.a, g.b, /*stall_gap=*/8000);

  EXPECT_TRUE(join.spill_stats().degraded);
  EXPECT_EQ(degraded_events, 1);
  EXPECT_GE(join.spill_stats().spill_failures, 2);
  EXPECT_EQ(run.results,
            ReferenceJoinRows(g.a, g.b, join.output_schema(), 0, 0));
}

// Two shards with adaptive spilling under skew: TSan coverage for the
// per-shard managers and their shared metrics-registry cells.
TEST(SpillManagerJoinTest, ParallelShardsWithAdaptiveSpillMatchReference) {
  GeneratedStreams g = SkewedStreams(13, 800, 20.0, 1.2);

  JoinOptions jopts = TightMemoryOptions();
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<PJoin>(g.schema_a, g.schema_b, jopts);
      },
      popts);
  std::vector<std::string> rows;
  pipeline.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });
  const Status st = pipeline.Run(g.a, g.b);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::sort(rows.begin(), rows.end());

  PJoin reference_join(g.schema_a, g.schema_b, jopts);
  EXPECT_EQ(rows, ReferenceJoinRows(g.a, g.b,
                                    reference_join.output_schema(), 0, 0));
}

}  // namespace
}  // namespace pjoin

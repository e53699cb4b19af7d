// Tests of the fault-injection harness (src/fault/) and its defensive
// counterpart RecoveringSpillStore: determinism, transient-error recovery,
// short-write resume, permanent-failure fallback, and the dual-view stream
// perturbation oracle.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_spill_store.h"
#include "fault/faulty_stream_source.h"
#include "storage/recovering_spill_store.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KeyPayloadSchema;
using testing::KeyPunct;
using testing::KP;

std::vector<std::string> Records(int n, const std::string& prefix = "r") {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(FaultInjectorTest, DeterministicFromSeed) {
  FaultInjector a(42);
  FaultInjector b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Roll(0.3), b.Roll(0.3));
    EXPECT_EQ(a.UniformInt(0, 99), b.UniformInt(0, 99));
  }
}

TEST(FaultySpillStoreTest, CountsEveryInjectedFault) {
  auto injector = std::make_shared<FaultInjector>(7);
  IoFaultSpec spec;
  spec.transient_write_error_rate = 0.5;
  FaultySpillStore store(std::make_unique<SimulatedDisk>(), spec, injector);
  int64_t failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (!store.AppendBatch(0, Records(1)).ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 100);
  EXPECT_EQ(injector->Get("io_transient_write"), failures);
  // Only the successful appends reached the base store.
  EXPECT_EQ(store.PartitionRecordCount(0), 100 - failures);
}

TEST(FaultySpillStoreTest, ShortWritePersistsStrictPrefix) {
  auto injector = std::make_shared<FaultInjector>(3);
  IoFaultSpec spec;
  spec.short_write_rate = 1.0;
  FaultySpillStore store(std::make_unique<SimulatedDisk>(), spec, injector);
  const auto records = Records(8);
  EXPECT_FALSE(store.AppendBatch(0, records).ok());
  const int64_t persisted = store.PartitionRecordCount(0);
  EXPECT_GE(persisted, 1);
  EXPECT_LT(persisted, static_cast<int64_t>(records.size()));
  // The persisted prefix is exactly the head of the batch.
  auto read = store.ReadPartition(0);
  ASSERT_TRUE(read.ok());
  for (size_t i = 0; i < read->size(); ++i) EXPECT_EQ((*read)[i], records[i]);
  EXPECT_EQ(injector->Get("io_short_write"), 1);
}

TEST(FaultySpillStoreTest, PermanentWriteFailureTripsAfterBudget) {
  auto injector = std::make_shared<FaultInjector>(1);
  IoFaultSpec spec;
  spec.permanent_write_failure_after = 2;
  FaultySpillStore store(std::make_unique<SimulatedDisk>(), spec, injector);
  EXPECT_TRUE(store.AppendBatch(0, Records(2)).ok());
  EXPECT_TRUE(store.AppendBatch(0, Records(2)).ok());
  EXPECT_FALSE(store.AppendBatch(0, Records(2)).ok());
  EXPECT_TRUE(store.write_failed_permanently());
  // The medium went read-only: reads still serve the durable records.
  auto read = store.ReadPartition(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 4u);
  EXPECT_EQ(injector->Get("io_permanent_write"), 1);
}

TEST(FaultySpillStoreTest, LatencySpikesAccountedInIoStats) {
  auto injector = std::make_shared<FaultInjector>(5);
  IoFaultSpec spec;
  spec.latency_spike_rate = 1.0;
  spec.latency_spike_micros = 1234;
  FaultySpillStore store(std::make_unique<SimulatedDisk>(), spec, injector);
  ASSERT_TRUE(store.AppendBatch(0, Records(1)).ok());
  ASSERT_TRUE(store.ReadPartition(0).ok());
  // Two spikes on top of whatever latency the base store models itself.
  EXPECT_GE(store.io_stats().simulated_latency_micros, 2 * 1234);
  EXPECT_EQ(injector->Get("io_latency_spike"), 2);
}

TEST(RecoveringSpillStoreTest, TransientErrorsRecoveredWithoutDegrading) {
  auto injector = std::make_shared<FaultInjector>(11);
  IoFaultSpec spec;
  spec.transient_write_error_rate = 0.3;
  spec.transient_read_error_rate = 0.3;
  RecoveryOptions opts;
  opts.max_retries = 10;
  std::vector<Event> events;
  RecoveringSpillStore store(
      std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                         spec, injector),
      opts, [&events](const Event& e) { events.push_back(e); });

  std::vector<std::string> all;
  for (int batch = 0; batch < 30; ++batch) {
    auto records = Records(4, "b" + std::to_string(batch) + "_");
    all.insert(all.end(), records.begin(), records.end());
    ASSERT_TRUE(store.AppendBatch(0, records).ok());
  }
  auto read = store.ReadPartition(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, all);  // every record durable exactly once, in order

  const RecoveryStats& stats = store.recovery_stats();
  EXPECT_FALSE(store.degraded());
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(stats.recovered_ops, 0);
  EXPECT_GT(stats.backoff_micros, 0);
  // Every observed I/O error is an injected fault, and each raised one
  // IoErrorEvent.
  EXPECT_EQ(stats.io_errors, injector->Get("io_transient_write") +
                                 injector->Get("io_transient_read"));
  EXPECT_EQ(static_cast<int64_t>(events.size()), stats.io_errors);
  for (const Event& e : events) EXPECT_EQ(e.type, EventType::kIoError);
}

TEST(RecoveringSpillStoreTest, ShortWriteResumeNeverDuplicatesOrLoses) {
  auto injector = std::make_shared<FaultInjector>(13);
  IoFaultSpec spec;
  spec.short_write_rate = 1.0;  // every multi-record append tears
  RecoveryOptions opts;
  opts.max_retries = 10;  // each tear persists >= 1 record, so 8 always fit
  RecoveringSpillStore store(
      std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                         spec, injector),
      opts);
  const auto records = Records(8);
  ASSERT_TRUE(store.AppendBatch(0, records).ok());
  auto read = store.ReadPartition(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
  EXPECT_FALSE(store.degraded());
  EXPECT_GT(store.recovery_stats().retries, 0);
  EXPECT_EQ(store.recovery_stats().recovered_ops, 1);
}

TEST(RecoveringSpillStoreTest, PermanentWriteFailureFallsBackWithMigration) {
  auto injector = std::make_shared<FaultInjector>(17);
  IoFaultSpec spec;
  spec.permanent_write_failure_after = 2;
  std::vector<Event> events;
  RecoveringSpillStore store(
      std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                         spec, injector),
      RecoveryOptions{},
      [&events](const Event& e) { events.push_back(e); });

  // Two appends fit the write budget; the third trips the permanent failure
  // and must land in the fallback together with the migrated history.
  ASSERT_TRUE(store.AppendBatch(0, Records(3, "a")).ok());
  ASSERT_TRUE(store.AppendBatch(1, Records(2, "b")).ok());
  ASSERT_TRUE(store.AppendBatch(0, Records(2, "c")).ok());

  EXPECT_TRUE(store.degraded());
  const RecoveryStats& stats = store.recovery_stats();
  EXPECT_EQ(stats.fallbacks, 1);
  EXPECT_EQ(stats.records_migrated, 5);  // both partitions moved over
  EXPECT_EQ(stats.records_lost, 0);

  auto p0 = store.ReadPartition(0);
  ASSERT_TRUE(p0.ok());
  std::vector<std::string> want0 = {"a0", "a1", "a2", "c0", "c1"};
  EXPECT_EQ(*p0, want0);
  auto p1 = store.ReadPartition(1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->size(), 2u);

  // Degraded mode keeps working.
  ASSERT_TRUE(store.AppendBatch(2, Records(4, "d")).ok());
  EXPECT_EQ(store.TotalRecordCount(), 11);

  int degraded_events = 0;
  for (const Event& e : events) {
    if (e.type == EventType::kDegradedMode) ++degraded_events;
  }
  EXPECT_EQ(degraded_events, 1);
}

TEST(RecoveringSpillStoreTest, UnreadableDataSurfacesAsLossNotSilence) {
  auto injector = std::make_shared<FaultInjector>(19);
  IoFaultSpec spec;
  spec.permanent_read_failure_after = 0;  // every read fails, forever
  RecoveryOptions opts;
  opts.max_retries = 2;
  RecoveringSpillStore store(
      std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                         spec, injector),
      opts);
  ASSERT_TRUE(store.AppendBatch(0, Records(5)).ok());
  auto read = store.ReadPartition(0);
  EXPECT_FALSE(read.ok());  // loss is reported, never papered over
  EXPECT_TRUE(store.degraded());
  EXPECT_EQ(store.recovery_stats().records_lost, 5);
}

TEST(RecoveringSpillStoreTest, IoStatsAggregateAcrossFallback) {
  auto injector = std::make_shared<FaultInjector>(23);
  IoFaultSpec spec;
  spec.permanent_write_failure_after = 1;
  RecoveringSpillStore store(
      std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                         spec, injector),
      RecoveryOptions{});
  ASSERT_TRUE(store.AppendBatch(0, Records(3)).ok());
  const int64_t before = store.io_stats().records_written;
  EXPECT_GE(before, 3);
  ASSERT_TRUE(store.AppendBatch(0, Records(3, "x")).ok());  // trips + migrates
  EXPECT_TRUE(store.degraded());
  // Retired-primary writes stay visible in the aggregate.
  EXPECT_GE(store.io_stats().records_written, before + 3);
}

// ---- Stream perturbation ----

std::vector<StreamElement> CleanStream(const SchemaPtr& schema) {
  ElementsBuilder b;
  for (int round = 0; round < 20; ++round) {
    for (int64_t key = round; key < round + 4; ++key) {
      b.Tup(KP(schema, key, round * 100 + key));
    }
    b.Punct(KeyPunct(round));  // key `round` is done after round `round`
  }
  return b.Finish();
}

StreamFaultSpec AllStreamFaults() {
  StreamFaultSpec spec;
  spec.late_tuple_rate = 0.1;
  spec.malformed_punct_rate = 0.05;
  spec.duplicate_rate = 0.1;
  spec.reorder_rate = 0.1;
  spec.stall_rate = 0.05;
  return spec;
}

TEST(PerturbStreamTest, SanitizedIsFaultyMinusViolations) {
  SchemaPtr schema = KeyPayloadSchema();
  const auto clean = CleanStream(schema);
  FaultInjector injector(31);
  PerturbedStream p = PerturbStream(clean, 0, AllStreamFaults(), &injector);

  EXPECT_GT(p.violations, 0);
  EXPECT_EQ(p.violations, p.late_tuples + p.malformed_puncts + p.duplicates);
  EXPECT_EQ(p.faulty.size(), p.sanitized.size() + p.violations);
  // The sanitized view is the clean stream plus only benign additions.
  EXPECT_EQ(p.sanitized.size(), clean.size() + p.benign_duplicates);

  // Both views stay time-ordered (monotone arrivals).
  for (auto* view : {&p.faulty, &p.sanitized}) {
    for (size_t i = 1; i < view->size(); ++i) {
      EXPECT_LE((*view)[i - 1].arrival(), (*view)[i].arrival());
    }
    ASSERT_FALSE(view->empty());
    EXPECT_TRUE(view->back().is_end_of_stream());
  }

  // The injector's counters agree with the report.
  EXPECT_EQ(injector.Get("stream_late_tuple"), p.late_tuples);
  EXPECT_EQ(injector.Get("stream_malformed_punct"), p.malformed_puncts);
  EXPECT_EQ(injector.Get("stream_duplicate_violation"), p.duplicates);
  EXPECT_EQ(injector.Get("stream_duplicate_benign"), p.benign_duplicates);
  EXPECT_EQ(injector.Get("stream_reorder"), p.reorders);
  EXPECT_EQ(injector.Get("stream_stall"), p.stalls);
}

TEST(PerturbStreamTest, DeterministicFromSeed) {
  SchemaPtr schema = KeyPayloadSchema();
  const auto clean = CleanStream(schema);
  FaultInjector ia(47), ib(47);
  PerturbedStream a = PerturbStream(clean, 0, AllStreamFaults(), &ia);
  PerturbedStream b = PerturbStream(clean, 0, AllStreamFaults(), &ib);
  ASSERT_EQ(a.faulty.size(), b.faulty.size());
  for (size_t i = 0; i < a.faulty.size(); ++i) {
    EXPECT_EQ(a.faulty[i].ToString(), b.faulty[i].ToString());
  }
}

TEST(PerturbStreamTest, ReordersPreserveTupleMultiset) {
  SchemaPtr schema = KeyPayloadSchema();
  const auto clean = CleanStream(schema);
  StreamFaultSpec spec;
  spec.reorder_rate = 0.5;
  FaultInjector injector(53);
  PerturbedStream p = PerturbStream(clean, 0, spec, &injector);
  EXPECT_GT(p.reorders, 0);
  EXPECT_EQ(p.violations, 0);
  auto canon = [](const std::vector<StreamElement>& v) {
    std::vector<std::string> out;
    for (const auto& e : v) {
      if (e.is_tuple()) out.push_back(e.tuple().ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(p.faulty), canon(clean));
  EXPECT_EQ(canon(p.sanitized), canon(clean));
}

TEST(PerturbStreamTest, StallsShiftArrivalsInBothViews) {
  SchemaPtr schema = KeyPayloadSchema();
  const auto clean = CleanStream(schema);
  StreamFaultSpec spec;
  spec.stall_rate = 0.2;
  spec.stall_micros = 50000;
  FaultInjector injector(59);
  PerturbedStream p = PerturbStream(clean, 0, spec, &injector);
  ASSERT_GT(p.stalls, 0);
  const TimeMicros shift = p.stalls * spec.stall_micros;
  EXPECT_EQ(p.faulty.back().arrival(), clean.back().arrival() + shift);
  EXPECT_EQ(p.sanitized.back().arrival(), clean.back().arrival() + shift);
}

TEST(FaultPlanTest, ToStringAndEnabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.io.transient_write_error_rate = 0.1;
  EXPECT_TRUE(plan.enabled());
  plan.stream[0].late_tuple_rate = 0.2;
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("late=0.2"), std::string::npos);
  EXPECT_NE(text.find("w_err=0.1"), std::string::npos);
}

}  // namespace
}  // namespace pjoin

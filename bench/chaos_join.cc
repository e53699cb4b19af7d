// Chaos micro-bench: PJoin under a hostile environment — contract-violating
// input streams (late tuples, malformed punctuations, duplicates, reorders,
// stalls) and flaky spill I/O (transient errors, short writes, a permanent
// write failure) — with the full defense stack enabled: ViolationPolicy::
// kDrop, RecoveringSpillStore (retry/resume/fallback), and event-based
// observability. Self-checking: the run must finish, match the sanitized
// reference result exactly, and account every injected fault.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/faulty_spill_store.h"
#include "fault/perturb_stream.h"
#include "gen/auction.h"
#include "join/pjoin.h"
#include "ops/pipeline.h"
#include "storage/recovering_spill_store.h"
#include "storage/simulated_disk.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

std::vector<std::string> Reference(const std::vector<StreamElement>& a,
                                   const std::vector<StreamElement>& b,
                                   const SchemaPtr& out_schema) {
  std::vector<std::string> out;
  for (const StreamElement& l : a) {
    if (!l.is_tuple()) continue;
    for (const StreamElement& r : b) {
      if (!r.is_tuple()) continue;
      if (l.tuple().field(0) == r.tuple().field(0)) {
        out.push_back(
            Tuple::Concat(l.tuple(), r.tuple(), out_schema).ToString());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main() {
  PrintHeader("Chaos", "PJoin under injected faults with full degradation",
              "auction workload, 4k bids; late/malformed/duplicate/reorder/"
              "stall stream faults both sides; transient + short-write + "
              "permanent-write spill faults; ViolationPolicy::kDrop; "
              "RecoveringSpillStore over FaultySpillStore(SimulatedDisk)");

  AuctionSpec aspec;
  aspec.num_bids = 4000;
  aspec.open_window = 24;
  aspec.close_mean_interarrival_bids = 80.0;
  AuctionStreams streams = GenerateAuction(aspec, /*seed=*/2004);

  FaultPlan plan;
  plan.seed = 0xC4A05;
  for (int s = 0; s < 2; ++s) {
    plan.stream[s].late_tuple_rate = 0.02;
    plan.stream[s].malformed_punct_rate = 0.01;
    plan.stream[s].duplicate_rate = 0.02;
    plan.stream[s].reorder_rate = 0.05;
    plan.stream[s].stall_rate = 0.005;
  }
  plan.io.transient_write_error_rate = 0.1;
  plan.io.transient_read_error_rate = 0.1;
  plan.io.short_write_rate = 0.1;
  plan.io.latency_spike_rate = 0.05;
  plan.io.permanent_write_failure_after = 40;

  auto injector = std::make_shared<FaultInjector>(plan.seed);
  PerturbedStream pa =
      PerturbStream(streams.open, 0, plan.stream[0], injector.get());
  PerturbedStream pb =
      PerturbStream(streams.bid, 0, plan.stream[1], injector.get());
  const int64_t injected_violations = pa.violations + pb.violations;

  std::vector<RecoveringSpillStore*> stores;
  int64_t io_error_events = 0;
  int64_t degraded_events = 0;
  auto sink = [&](const Event& e) {
    if (e.type == EventType::kIoError) ++io_error_events;
    if (e.type == EventType::kDegradedMode) ++degraded_events;
  };

  JoinOptions opts;
  opts.violation_policy = ViolationPolicy::kDrop;
  opts.runtime.memory_threshold_tuples = 16;
  opts.runtime.propagate_count_threshold = 8;
  opts.spill_factory = [&]() -> std::unique_ptr<SpillStore> {
    RecoveryOptions ropts;
    ropts.max_retries = 8;
    auto store = std::make_unique<RecoveringSpillStore>(
        std::make_unique<FaultySpillStore>(std::make_unique<SimulatedDisk>(),
                                           plan.io, injector),
        ropts, sink);
    stores.push_back(store.get());
    return store;
  };

  PJoin join(streams.open_schema, streams.bid_schema, opts);
  std::vector<std::string> rows;
  join.set_result_callback(
      [&rows](const Tuple& t) { rows.push_back(t.ToString()); });

  Stopwatch watch;
  PipelineOptions popts;
  popts.stall_gap_micros = 3000;
  JoinPipeline pipe(&join, nullptr, popts);
  Status status = pipe.Run(pa.faulty, pb.faulty);
  const TimeMicros wall = watch.ElapsedMicros();
  std::sort(rows.begin(), rows.end());

  const auto reference =
      Reference(pa.sanitized, pb.sanitized, join.output_schema());

  int64_t io_errors = 0;
  int64_t retries = 0;
  int64_t recovered = 0;
  int64_t fallbacks = 0;
  int64_t migrated = 0;
  int64_t lost = 0;
  for (const RecoveringSpillStore* s : stores) {
    const RecoveryStats& rs = s->recovery_stats();
    io_errors += rs.io_errors;
    retries += rs.retries;
    recovered += rs.recovered_ops;
    fallbacks += rs.fallbacks;
    migrated += rs.records_migrated;
    lost += rs.records_lost;
  }

  PrintMetric("wall_time", static_cast<double>(wall) / 1000.0, "ms");
  PrintMetric("results", static_cast<double>(rows.size()));
  PrintMetric("injected_violations", static_cast<double>(injected_violations));
  PrintMetric("detected_violations",
              static_cast<double>(join.contract_violations()));
  PrintMetric("io_errors", static_cast<double>(io_errors));
  PrintMetric("io_retries", static_cast<double>(retries));
  PrintMetric("io_recovered_ops", static_cast<double>(recovered));
  PrintMetric("fallbacks", static_cast<double>(fallbacks));
  PrintMetric("records_migrated", static_cast<double>(migrated));
  PrintMetric("records_lost", static_cast<double>(lost));
  PrintMetric("io_error_events", static_cast<double>(io_error_events));
  PrintMetric("degraded_events", static_cast<double>(degraded_events));
  std::printf("injected faults: %s\n",
              injector->SnapshotCounters().ToString().c_str());

  bool ok = true;
  auto check = [&ok](const std::string& what, bool holds) {
    PrintShapeCheck(what, holds);
    ok = ok && holds;
  };
  check("run completes without error", status.ok());
  check("output == reference over sanitized inputs", rows == reference);
  check("every injected violation detected",
        join.contract_violations() == injected_violations);
  check("every I/O error raised an IoErrorEvent",
        io_error_events == io_errors);
  check("no records lost", lost == 0);
  check("permanent write failure forced a fallback",
        plan.io.permanent_write_failure_after < 0 || fallbacks > 0);
  return ok ? 0 : 1;
}

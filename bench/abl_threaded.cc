// Ablation A9: serial vs threaded execution. ParallelJoinPipeline with one
// shard runs a router on the calling thread that merges the inputs in
// arrival order and hands them over a lock-free ring to the join on a shard
// worker — the deployment shape of a real stream system. Results must be
// identical; this measures the coordination overhead and the stall-driven
// background work.

#include <memory>

#include "bench_util.h"
#include "join/pjoin.h"
#include "ops/parallel_pipeline.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 30000;
  cfg.punct_a = 20;
  cfg.punct_b = 20;
  GeneratedStreams g = cfg.Generate();

  // Serial baseline.
  JoinOptions opts;
  opts.runtime.purge_threshold = 1;
  PJoin serial(g.schema_a, g.schema_b, opts);
  RunStats serial_stats = RunExperiment(&serial, g);

  // Threaded run: the parallel pipeline at one shard.
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<PJoin>(g.schema_a, g.schema_b, opts);
      },
      popts);
  int64_t threaded_results = 0;
  pipeline.set_result_callback(
      [&threaded_results](const Tuple&) { ++threaded_results; });
  Stopwatch watch;
  Status st = pipeline.Run(g.a, g.b);
  PJOIN_DCHECK(st.ok());
  const TimeMicros threaded_wall = watch.ElapsedMicros();

  PrintHeader("Ablation A9", "serial vs ParallelJoinPipeline x1",
              "30k tuples/stream, punct inter-arrival 20, eager purge");
  PrintMetric("serial wall time", serial_stats.wall_micros / 1e6, "s");
  PrintMetric("threaded wall time", threaded_wall / 1e6, "s");
  PrintMetric("threaded stalls reported",
              static_cast<double>(pipeline.stalls_reported()));
  PrintMetric("serial results", static_cast<double>(serial_stats.results));
  PrintMetric("threaded results", static_cast<double>(threaded_results));
  PrintShapeCheck("identical result counts",
                  serial_stats.results == threaded_results);
  PrintShapeCheck("threaded overhead below 5x of serial",
                  threaded_wall < serial_stats.wall_micros * 5 +
                                      100 * kMicrosPerMilli);
  return 0;
}

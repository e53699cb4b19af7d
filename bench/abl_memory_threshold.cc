// Ablation A3: memory-threshold sweep. How much spill I/O do XJoin and
// PJoin incur as the in-memory budget shrinks? PJoin's purging keeps it
// below the threshold most of the time, so it should spill far less.

#include "bench_util.h"
#include "join/pjoin.h"
#include "join/xjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

int main() {
  ExperimentConfig cfg;
  cfg.num_tuples = 20000;
  cfg.punct_a = 20;
  cfg.punct_b = 20;
  GeneratedStreams g = cfg.Generate();

  const int64_t thresholds[] = {500, 1000, 2000, 4000};
  PrintHeader("Ablation A3", "memory threshold sweep: spill I/O",
              "20k tuples/stream, punct inter-arrival 20; pages written+read "
              "per run");
  std::printf("%-12s %16s %16s %16s %16s\n", "mem_thresh", "xjoin_pages",
              "pjoin_pages", "xjoin_flushed", "pjoin_flushed");
  bool pjoin_always_less = true;
  for (int64_t t : thresholds) {
    JoinOptions xopts;
    xopts.runtime.memory_threshold_tuples = t;
    XJoin xjoin(g.schema_a, g.schema_b, xopts);
    RunStats xs = RunExperiment(&xjoin, g);
    const int64_t xpages = xjoin.state(0).io_stats().pages_written +
                           xjoin.state(0).io_stats().pages_read +
                           xjoin.state(1).io_stats().pages_written +
                           xjoin.state(1).io_stats().pages_read;

    JoinOptions popts;
    popts.runtime.purge_threshold = 1;
    popts.runtime.memory_threshold_tuples = t;
    PJoin pjoin(g.schema_a, g.schema_b, popts);
    RunStats ps = RunExperiment(&pjoin, g);
    const int64_t ppages = pjoin.state(0).io_stats().pages_written +
                           pjoin.state(0).io_stats().pages_read +
                           pjoin.state(1).io_stats().pages_written +
                           pjoin.state(1).io_stats().pages_read;

    std::printf("%-12lld %16lld %16lld %16lld %16lld\n",
                static_cast<long long>(t), static_cast<long long>(xpages),
                static_cast<long long>(ppages),
                static_cast<long long>(xjoin.spill_stats().tuples_spilled),
                static_cast<long long>(pjoin.spill_stats().tuples_spilled));
    if (ppages > xpages) pjoin_always_less = false;
    if (xs.results != ps.results) {
      PrintShapeCheck("identical result sets", false);
      return 1;
    }
  }
  PrintShapeCheck("PJoin never spills more than XJoin", pjoin_always_less);
  return 0;
}

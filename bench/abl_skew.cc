// Ablation A8: key skew. Zipf-skewed arrivals concentrate load on the
// newest keys, imbalancing partitions; relocation (which flushes the
// largest memory partition) and purging must cope. Results must be
// identical; spill traffic shifts.

#include "bench_util.h"
#include "join/pjoin.h"
#include "join/xjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

GeneratedStreams Make(double zipf_s) {
  DomainSpec d;
  d.window_size = 20;
  StreamSpec spec;
  spec.num_tuples = 20000;
  spec.punct_mean_interarrival_tuples = 20;
  spec.zipf_s = zipf_s;
  return GenerateStreams(d, spec, spec, 4242);
}

}  // namespace

int main() {
  PrintHeader("Ablation A8", "key skew (Zipf) vs uniform arrivals",
              "20k tuples/stream, punct inter-arrival 20, eager purge, "
              "memory threshold 1000 tuples");
  std::printf("%-10s %14s %14s %14s %14s\n", "zipf_s", "results",
              "mean_state", "relocations", "flushed");
  double prev_results = -1;
  bool state_grows = true;
  double last_mean = -1;
  for (double s : {0.0, 0.8, 1.5}) {
    GeneratedStreams g = Make(s);
    JoinOptions opts;
    EnableStateSampling(&opts);
    opts.runtime.purge_threshold = 1;
    opts.runtime.memory_threshold_tuples = 1000;
    PJoin join(g.schema_a, g.schema_b, opts);
    RunStats rs = RunExperiment(&join, g);
    std::printf("%-10.1f %14lld %14.1f %14lld %14lld\n", s,
                static_cast<long long>(rs.results), rs.mean_state,
                static_cast<long long>(join.spill_stats().spills),
                static_cast<long long>(join.spill_stats().tuples_spilled));
    // Skew changes the result count (different key frequencies) but every
    // run must remain internally exact; cross-check one skew level against
    // an XJoin run on the same streams.
    XJoin xjoin(g.schema_a, g.schema_b);
    RunStats xs = RunExperiment(&xjoin, g);
    if (xs.results != rs.results) {
      PrintShapeCheck("pjoin/xjoin agree under skew", false);
      return 1;
    }
    (void)prev_results;
    prev_results = static_cast<double>(rs.results);
    if (last_mean >= 0 && rs.mean_state > last_mean * 4) state_grows = false;
    last_mean = rs.mean_state;
  }
  PrintShapeCheck("pjoin/xjoin agree under skew", true);
  PrintShapeCheck("state stays in the same ballpark across skew levels",
                  state_grows);
  return 0;
}

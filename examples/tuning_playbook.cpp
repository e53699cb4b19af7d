// Tuning playbook: how to configure and re-tune PJoin at runtime.
//
// Walks through the knobs of the event-driven framework (§3.6):
//   1. purge threshold (eager vs lazy purge),
//   2. memory threshold (state relocation to the spill store),
//   3. propagation mode (push by count/time, pull on request),
//   4. live re-tuning through Monitor::params(),
// and prints the event-listener registry before and after rewiring.

#include <cstdio>

#include "common/clock.h"
#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "ops/pipeline.h"

using namespace pjoin;

namespace {

GeneratedStreams MakeStreams(int64_t n) {
  DomainSpec d;
  d.window_size = 20;
  StreamSpec spec;
  spec.num_tuples = n;
  spec.punct_mean_interarrival_tuples = 10;
  return GenerateStreams(d, spec, spec, 99);
}

void Report(const char* label, const PJoin& join, TimeMicros wall) {
  std::printf("%-28s wall=%8.1f ms  state=%6lld  purge_runs=%5lld  "
              "purge_scanned=%9lld\n",
              label, wall / 1e3,
              static_cast<long long>(join.total_state_tuples()),
              static_cast<long long>(join.counters().Get("purge_runs")),
              static_cast<long long>(join.counters().Get("purge_scanned")));
}

TimeMicros RunOnce(PJoin* join, const GeneratedStreams& g) {
  Stopwatch watch;
  JoinPipeline pipe(join, nullptr);
  Status st = pipe.Run(g.a, g.b);
  PJOIN_DCHECK(st.ok());
  return watch.ElapsedMicros();
}

}  // namespace

int main() {
  GeneratedStreams g = MakeStreams(20000);

  std::printf("--- 1. eager purge (purge_threshold = 1) ---\n");
  {
    JoinOptions opts;
    opts.runtime.purge_threshold = 1;
    PJoin join(g.schema_a, g.schema_b, opts);
    TimeMicros wall = RunOnce(&join, g);
    Report("eager", join, wall);
  }

  std::printf("\n--- 2. lazy purge (purge_threshold = 100) ---\n");
  {
    JoinOptions opts;
    opts.runtime.purge_threshold = 100;
    PJoin join(g.schema_a, g.schema_b, opts);
    TimeMicros wall = RunOnce(&join, g);
    Report("lazy-100", join, wall);
  }

  std::printf("\n--- 3. tight memory budget (spill to simulated disk) ---\n");
  {
    JoinOptions opts;
    opts.runtime.purge_threshold = 1;
    opts.runtime.memory_threshold_tuples = 200;
    PJoin join(g.schema_a, g.schema_b, opts);
    TimeMicros wall = RunOnce(&join, g);
    Report("eager, mem<=200", join, wall);
    std::printf("    spill io: %s\n",
                join.state(0).io_stats().ToString().c_str());
  }

  std::printf("\n--- 4. live re-tuning mid-stream ---\n");
  {
    JoinOptions opts;
    opts.runtime.purge_threshold = 1;
    PJoin join(g.schema_a, g.schema_b, opts);
    std::printf("registry before:\n%s", join.registry().ToString().c_str());
    // Feed the first half eagerly…
    size_t half_a = g.a.size() / 2;
    size_t half_b = g.b.size() / 2;
    for (size_t i = 0; i < half_a; ++i) {
      PJOIN_DCHECK(join.OnElement(0, g.a[i]).ok());
    }
    for (size_t i = 0; i < half_b; ++i) {
      PJOIN_DCHECK(join.OnElement(1, g.b[i]).ok());
    }
    const int64_t purges_first_half = join.counters().Get("purge_runs");
    // …then switch to lazy purge at runtime: the monitor's thresholds are
    // the join's own and take effect immediately.
    join.monitor().params().purge_threshold = 50;
    for (size_t i = half_a; i < g.a.size(); ++i) {
      PJOIN_DCHECK(join.OnElement(0, g.a[i]).ok());
    }
    for (size_t i = half_b; i < g.b.size(); ++i) {
      PJOIN_DCHECK(join.OnElement(1, g.b[i]).ok());
    }
    std::printf("purge runs: first half (eager) = %lld, "
                "second half (lazy-50) = %lld\n",
                static_cast<long long>(purges_first_half),
                static_cast<long long>(join.counters().Get("purge_runs") -
                                       purges_first_half));
  }

  std::printf("\n--- 5. pull-mode propagation ---\n");
  {
    JoinOptions opts;
    opts.runtime.purge_threshold = 1;
    opts.propagate_on_finish = false;  // only propagate when asked
    PJoin join(g.schema_a, g.schema_b, opts);
    int64_t puncts = 0;
    join.set_punct_callback([&puncts](const Punctuation&) { ++puncts; });
    JoinPipeline pipe(&join, nullptr);
    PJOIN_DCHECK(pipe.Run(g.a, g.b).ok());
    std::printf("propagated before request: %lld\n",
                static_cast<long long>(puncts));
    PJOIN_DCHECK(join.RequestPropagation().ok());  // downstream pulls
    std::printf("propagated after request:  %lld\n",
                static_cast<long long>(puncts));
  }
  return 0;
}

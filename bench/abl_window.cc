// Ablation A10 (§6 extension): what punctuations add on top of a sliding
// window. With a large window, expiry alone leaves lots of dead state;
// punctuations purge a key's tuples the moment its auction closes and
// propagate the closure downstream long before the window would.

#include "bench_util.h"
#include "gen/stream_generator.h"
#include "stream/arrival_merge.h"
#include "window/window_pjoin.h"

using namespace pjoin;
using namespace pjoin::bench;

namespace {

struct WindowRun {
  int64_t results = 0;
  int64_t puncts_out = 0;
  double mean_state = 0.0;
  int64_t max_state = 0;
  int64_t expired = 0;
  int64_t punct_purged = 0;
};

WindowRun Run(const GeneratedStreams& g, TimeMicros window,
              bool exploit_puncts) {
  WindowJoinOptions opts;
  opts.window_micros = window;
  opts.exploit_punctuations = exploit_puncts;
  WindowPJoin join(g.schema_a, g.schema_b, opts);
  WindowRun out;
  join.set_result_callback([&out](const Tuple&) { ++out.results; });
  join.set_punct_callback([&out](const Punctuation&) { ++out.puncts_out; });

  TimeSeries state;
  int64_t processed = 0;
  for (ArrivalMerge merge(g.a, g.b); !merge.done();) {
    const auto [side, e] = merge.Next();
    Status st = join.OnElement(side, *e);
    PJOIN_DCHECK(st.ok());
    if (++processed % 200 == 0) {
      state.Record(e->arrival(), join.state_tuples());
    }
  }
  out.mean_state = state.MeanValue();
  out.max_state = state.MaxValue();
  out.expired = join.counters().Get("window_expired");
  out.punct_purged = join.counters().Get("punct_purged");
  return out;
}

}  // namespace

int main() {
  DomainSpec d;
  d.window_size = 20;
  StreamSpec spec;
  spec.num_tuples = 20000;
  spec.punct_mean_interarrival_tuples = 20;
  GeneratedStreams g = GenerateStreams(d, spec, spec, 777);

  const TimeMicros kLargeWindow = 5 * kMicrosPerSecond;
  WindowRun window_only = Run(g, kLargeWindow, false);
  WindowRun window_plus_punct = Run(g, kLargeWindow, true);

  PrintHeader("Ablation A10", "sliding window with vs without punctuations",
              "20k tuples/stream, 5 s window, punct inter-arrival 20");
  PrintMetric("mean state, window only", window_only.mean_state, "tuples");
  PrintMetric("mean state, window + punctuations",
              window_plus_punct.mean_state, "tuples");
  PrintMetric("expired by window (window only)",
              static_cast<double>(window_only.expired));
  PrintMetric("purged early by punctuations",
              static_cast<double>(window_plus_punct.punct_purged));
  PrintMetric("punctuations propagated",
              static_cast<double>(window_plus_punct.puncts_out));
  PrintShapeCheck("same results either way",
                  window_only.results == window_plus_punct.results);
  PrintShapeCheck("punctuations shrink the windowed state",
                  window_plus_punct.mean_state < window_only.mean_state);
  PrintShapeCheck("window-only run propagates nothing",
                  window_only.puncts_out == 0);
  return 0;
}

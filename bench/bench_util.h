// Shared harness for the figure-reproduction benches: experiment
// configuration mirroring the paper's §4 setup, instrumented runs, and
// aligned series printing.

#ifndef PJOIN_BENCH_BENCH_UTIL_H_
#define PJOIN_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "gen/stream_generator.h"
#include "join/join_base.h"

namespace pjoin {
namespace bench {

/// Experiment parameters shared by all figures. Defaults follow §4: tuple
/// inter-arrival Poisson(2 ms), many-to-many join, punctuation inter-arrival
/// in tuples/punctuation.
struct ExperimentConfig {
  int64_t num_tuples = 20000;
  double punct_a = 40.0;
  double punct_b = 40.0;
  int64_t window = 20;
  uint64_t seed = 2004;

  GeneratedStreams Generate() const;
};

/// Everything measured during one instrumented run.
struct RunStats {
  /// Cumulative output tuples against processing wall-clock time.
  TimeSeries output_vs_wall;
  /// Join-state size (tuples, memory+disk+purge buffer) against stream
  /// (virtual) time.
  TimeSeries state_vs_stream;
  /// Cumulative propagated punctuations against stream time.
  TimeSeries puncts_vs_stream;
  int64_t results = 0;
  int64_t puncts_out = 0;
  TimeMicros wall_micros = 0;
  TimeMicros stream_micros = 0;
  CounterSet counters;
  int64_t max_state = 0;
  double mean_state = 0.0;
};

/// Drives `join` over the generated streams, sampling every `sample_every`
/// elements. `on_sample` (optional) is invoked at each sampling point for
/// custom instrumentation (e.g. per-side state sizes).
RunStats RunExperiment(
    JoinOperator* join, const GeneratedStreams& streams,
    int64_t sample_every = 250,
    const std::function<void(const JoinOperator&)>& on_sample = nullptr,
    const std::function<void(const Punctuation&)>& on_punct = nullptr);

/// Enables state sampling on a JoinOptions (records every sample).
void EnableStateSampling(JoinOptions* options);

// ---- Output formatting ----

/// Prints the figure banner.
void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& setup);

/// Prints several series resampled onto a common grid, one row per bucket:
/// first column the axis value, then one column per series.
struct Series {
  std::string name;
  const TimeSeries* data;
};
void PrintTable(const std::string& axis_name, TimeMicros horizon, int buckets,
                const std::vector<Series>& series);

/// Prints a one-line summary metric.
void PrintMetric(const std::string& name, double value,
                 const std::string& unit = "");

/// Exact median of `samples` (the upper middle one of an even count); 0 when
/// empty.
int64_t Median(std::vector<int64_t> samples);

/// "count=N median=M max=X" over `samples`, for latency lines.
std::string SampleSummary(const std::vector<int64_t>& samples);

/// Prints the shape-check verdict line used by EXPERIMENTS.md.
void PrintShapeCheck(const std::string& expectation, bool holds);

}  // namespace bench
}  // namespace pjoin

#endif  // PJOIN_BENCH_BENCH_UTIL_H_

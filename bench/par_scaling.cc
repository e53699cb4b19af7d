// par_scaling: thread-scaling benchmark for the partition-parallel pipeline
// (docs/PERFORMANCE.md).
//
// Baseline: the seed's single-threaded PJoin with linear bucket-scan probing
// (indexed_probe = false), driven through the ordinary JoinPipeline. Against
// it we run the single-threaded indexed probe and the parallel pipeline at a
// sweep of shard counts, on a probe-heavy workload (sparse punctuations, so
// the memory state stays large and probe cost dominates).
//
// Every configuration is checked against the baseline with an
// order-independent multiset oracle (result count + commutative hash of the
// result rows); a machine-readable summary is written to
// BENCH_par_scaling.json.
//
// Usage: par_scaling [--tuples=N] [--shards=a,b,c] [--punct=T] [--out=FILE]
//                    [--reps=N] [--ring=N] [--check] [--trace=FILE]
//                    [--metrics=FILE] [--serve_port=P] [--serve_linger_ms=N]
//   Every value is parsed whole (std::from_chars); a malformed value, a
//   count below its minimum (--tuples=0, --shards=0) or an unknown flag is
//   refused with a "par_scaling:" message and exit status 1.
//   --check    exit non-zero if any oracle fails (CI perf-smoke mode).
//   --reps     wall-clock repetitions per configuration (default 3); the
//              best run is reported, de-noising the perf gate's ratios.
//   --ring     capacity of every router→shard ring in elements;
//              0 = library defaults. CI's live-scrape smoke
//              shrinks the rings so backpressure and spin-park paths
//              demonstrably fire even on a small workload.
//   --stall_polls=N  empty polls before a shard runs stall work and parks
//              (default: library's). The smoke sets 1 so every dry moment
//              takes the spin-then-park slow path and its counter moves.
//   --trace    record operator tracing for the whole sweep and write a
//              Chrome trace_event JSON (Perfetto-loadable); needs a build
//              with PJOIN_TRACING=ON to contain events.
//   --metrics  dump the global MetricsRegistry as JSON after the sweep.
//   --serve_port     serve /metrics, /statusz, /tracez, /healthz on this
//                    loopback port for the duration of the run (0 =
//                    ephemeral; the bound port is printed). See
//                    docs/OBSERVABILITY.md.
//   --health   start the health watchdog (feeds the frontier-lag histogram
//              and /healthz classification; implied by --stall_ms).
//   --stall_ms=N     before the sweep, run a deliberately wedged x1
//              configuration whose join sleeps N ms per tuple: the router
//              runs ahead, the shard's frontier stalls, and a scraper polling
//              /healthz observes 503 (stalled, naming shard 0) for roughly
//              stall_tuples * N ms, then 200 again once it completes. The
//              CI health smoke drives this.
//   --stall_tuples=N  tuples per stream for the stalled run (default 100).
//   --serve_linger_ms  after the sweep, keep re-running the widest parallel
//                    configuration for this long so scrapers catch a live
//                    pipeline; GET /quitquitquit ends the linger early.
//   --zipf=S   skew stream A of the MAIN sweep (zipf exponent over the open
//              window; B stays uniform).
//   --skew_sweep=0   disable the zipf skew sweep (the parallel pipeline at
//              --skew_list exponents: wall time, bottleneck share and
//              oracle per point, "skew_sweep" in the JSON).
//   --skew_list=a,b,c  zipf exponents swept (default 0,0.8,1.2,1.6).
//   --skew_tuples=N --skew_window=N  skew-sweep workload shape: stream A
//              draws keys zipf-skewed from a window of N open keys, so the
//              top key's share is ~1/H(window, s) (~44% at s=1.6 for 4096).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "join/pjoin.h"
#include "obs/chrome_trace.h"
#include "obs/health.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ops/parallel_pipeline.h"
#include "ops/pipeline.h"

namespace pjoin {
namespace bench {
namespace {

struct Cli {
  int64_t tuples = 40000;
  double punct_rate = 2000.0;  // tuples per punctuation: sparse = probe-heavy
  int64_t window = 16384;      // open keys: wide = large state, few matches
  // Memory cap (state tuples) for the extra spill configuration; 0 skips it
  // (and the spill sweep below with it). The cap is deliberately tight so
  // the run exercises relocation and the disk join (spill-store page IO
  // shows up in --trace output).
  int64_t memcap = 4096;
  // Spill sweep: a heavy-zipf punctuated workload run at a descending
  // ladder of memory caps (memcap/2, /4, /8), once with the adaptive
  // SpillManager and once in the paper's global-threshold mode, recording
  // the spill-decision stats ("spill_sweep" in the JSON output).
  int64_t spill_tuples = 8000;
  double spill_zipf = 1.2;
  double spill_punct_rate = 20.0;
  std::vector<int> shards = {1, 2, 4};
  // Wall-clock repetitions per measured configuration; the best run is
  // reported. Single-shot numbers on shared runners carry 15-20% scheduler
  // noise — the minimum over a few runs is the standard low-variance
  // estimator, and it is applied to every configuration alike, so the
  // cross-run ratios the perf gate compares stay fair.
  int reps = 3;
  // Ring capacity override (elements) for every SPSC edge; 0 keeps the
  // ParallelPipelineOptions defaults. Small values force the backpressure
  // and park paths, which CI's live scrape asserts via their counters.
  int64_t ring = 0;
  int64_t stall_polls = 0;  // 0 = ParallelPipelineOptions default
  // Main-sweep skew: stream A's zipf exponent.
  double zipf = 0.0;
  // Skew sweep: the parallel pipeline at a ladder of zipf exponents, A-side
  // skewed / B uniform ("skew_sweep" in the JSON).
  bool skew_sweep = true;
  std::vector<double> skew_list = {0.0, 0.8, 1.2, 1.6};
  int64_t skew_tuples = 24000;
  int64_t skew_window = 4096;
  std::string out = "BENCH_par_scaling.json";
  std::string trace;    // empty = tracing not started
  std::string metrics;  // empty = no metrics dump
  bool check = false;
  int serve_port = -1;         // -1 = no introspection server
  int64_t serve_linger_ms = 0;
  // Health watchdog + deliberate stall (the CI health smoke).
  bool health = false;
  int64_t stall_ms = 0;      // per-tuple sleep of the wedged run; 0 = skip
  int64_t stall_tuples = 100;
};

/// Parses all of `text` into `*out` with std::from_chars; false when the
/// text is malformed or the value falls outside [min, max] (NaN included).
template <typename T>
bool ParseInRange(std::string_view text, T min, T max, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

/// One flag that takes a value: what it takes (for the refusal message)
/// and a parser that stores the value only when it is well-formed.
struct ValueFlag {
  std::string_view name;
  std::string takes;
  std::function<bool(std::string_view)> parse;
};

template <typename T>
std::string FormatBound(T bound) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(bound);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", bound);
    return buf;
  }
}

template <typename T>
ValueFlag Number(std::string_view name, T* field, T min,
                 T max = std::numeric_limits<T>::max()) {
  std::string takes = std::is_integral_v<T> ? "an integer" : "a number";
  takes += " >= " + FormatBound(min);
  if (max != std::numeric_limits<T>::max()) {
    takes += " and <= " + FormatBound(max);
  }
  return {name, takes, [field, min, max](std::string_view text) {
            return ParseInRange(text, min, max, field);
          }};
}

/// A comma-separated list, each entry parsed as Number parses one value.
template <typename T>
ValueFlag List(std::string_view name, std::vector<T>* field, T min) {
  std::string takes = std::is_integral_v<T> ? "integers" : "numbers";
  takes = "comma-separated " + takes + " >= " + FormatBound(min);
  return {name, takes, [field, min](std::string_view text) {
            std::vector<T> values;
            for (size_t comma = 0; comma != std::string_view::npos;) {
              comma = text.find(',');
              T value{};
              if (!ParseInRange(text.substr(0, comma), min,
                                std::numeric_limits<T>::max(), &value)) {
                return false;
              }
              values.push_back(value);
              text.remove_prefix(comma == std::string_view::npos ? text.size()
                                                                 : comma + 1);
            }
            *field = std::move(values);
            return true;
          }};
}

/// Fills `cli` from argv. Refuses a malformed value, a value below its
/// flag's minimum and an unknown flag with a "par_scaling:" message on
/// stderr, returning false.
bool ParseCli(int argc, char** argv, Cli* cli) {
  const auto text = [](std::string* field) {
    return [field](std::string_view v) {
      *field = std::string(v);
      return !v.empty();
    };
  };
  const std::vector<ValueFlag> flags = {
      Number<int64_t>("--tuples", &cli->tuples, 1),
      Number<int64_t>("--window", &cli->window, 1),
      Number<double>("--punct", &cli->punct_rate, 1.0),
      Number<int64_t>("--memcap", &cli->memcap, 0),
      Number<int64_t>("--spill_tuples", &cli->spill_tuples, 1),
      Number<double>("--spill_zipf", &cli->spill_zipf, 0.0),
      Number<double>("--spill_punct", &cli->spill_punct_rate, 1.0),
      Number<int>("--reps", &cli->reps, 1),
      Number<int64_t>("--ring", &cli->ring, 0),
      Number<int64_t>("--stall_polls", &cli->stall_polls, 0),
      Number<double>("--zipf", &cli->zipf, 0.0),
      {"--skew_sweep", "0 or 1",
       [cli](std::string_view v) {
         int on = 0;
         if (!ParseInRange(v, 0, 1, &on)) return false;
         cli->skew_sweep = on != 0;
         return true;
       }},
      Number<int64_t>("--skew_tuples", &cli->skew_tuples, 1),
      Number<int64_t>("--skew_window", &cli->skew_window, 1),
      List<double>("--skew_list", &cli->skew_list, 0.0),
      {"--out", "a file name", text(&cli->out)},
      {"--trace", "a file name", text(&cli->trace)},
      {"--metrics", "a file name", text(&cli->metrics)},
      Number<int>("--serve_port", &cli->serve_port, 0, 65535),
      Number<int64_t>("--serve_linger_ms", &cli->serve_linger_ms, 0),
      Number<int64_t>("--stall_ms", &cli->stall_ms, 0),
      Number<int64_t>("--stall_tuples", &cli->stall_tuples, 1),
      List<int>("--shards", &cli->shards, 1),
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check") {
      cli->check = true;
      continue;
    }
    if (arg == "--health") {
      cli->health = true;
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [name](const ValueFlag& f) { return f.name == name; });
    if (flag == flags.end()) {
      std::fprintf(stderr, "par_scaling: unknown flag %s\n", argv[i]);
      return false;
    }
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    if (!flag->parse(value)) {
      std::fprintf(stderr, "par_scaling: %s takes %s, not '%s'\n",
                   std::string(name).c_str(), flag->takes.c_str(),
                   std::string(value).c_str());
      return false;
    }
  }
  return true;
}

/// Order-independent multiset fingerprint of the emitted result rows: a
/// commutative sum of per-row hashes, each row hashed field-order-sensitively
/// from the field values (no string materialization — the oracle must stay
/// cheap relative to the join work it certifies).
struct Oracle {
  int64_t count = 0;
  uint64_t hash = 0;

  void Add(const Tuple& t) {
    ++count;
    uint64_t row = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < t.num_fields(); ++i) {
      row = (row ^ t.field(i).Hash()) * 0x100000001b3ull;
    }
    hash += row;
  }
  bool operator==(const Oracle& other) const {
    return count == other.count && hash == other.hash;
  }
};

JoinOptions BenchJoinOptions(bool indexed_probe, int64_t memcap = 0) {
  JoinOptions opts;
  opts.num_partitions = 16;
  opts.indexed_probe = indexed_probe;
  if (memcap > 0) opts.runtime.memory_threshold_tuples = memcap;
  return opts;
}

struct Measured {
  std::string name;
  int shards = 0;  // 0 = single-threaded
  bool indexed = false;
  double wall_ms = 0.0;
  Oracle oracle;
  int64_t state_tuples = 0;
  std::vector<ShardStats> shard_stats;

  double throughput() const {
    return wall_ms > 0 ? static_cast<double>(oracle.count) / (wall_ms / 1e3)
                       : 0.0;
  }
};

Measured RunSingle(const std::string& name, const GeneratedStreams& streams,
                   bool indexed_probe) {
  Measured m;
  m.name = name;
  m.indexed = indexed_probe;
  PJoin join(streams.schema_a, streams.schema_b,
             BenchJoinOptions(indexed_probe));
  join.set_result_callback([&m](const Tuple& t) { m.oracle.Add(t); });
  JoinPipeline pipeline(&join, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = pipeline.Run(streams.a, streams.b);
  const auto t1 = std::chrono::steady_clock::now();
  PJOIN_DCHECK(st.ok());
  m.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1e3;
  m.state_tuples = join.total_state_tuples();
  return m;
}

// Run names spell out the probe mode: the parallel pipeline composes with
// either per-shard probe (`_indexed` / `_scan`); the `_spill` run is the
// memory-capped indexed configuration.
Measured RunParallel(const GeneratedStreams& streams, int shards,
                     bool indexed_probe, int64_t memcap = 0,
                     int64_t ring_capacity = 0, int64_t stall_polls = 0) {
  Measured m;
  m.name = "parallel_x" + std::to_string(shards) +
           (memcap > 0 ? "_spill" : (indexed_probe ? "_indexed" : "_scan"));
  m.shards = shards;
  m.indexed = indexed_probe;
  ParallelPipelineOptions popts;
  popts.num_shards = shards;
  if (ring_capacity > 0) {
    popts.shard_queue_capacity = static_cast<size_t>(ring_capacity);
  }
  if (stall_polls > 0) popts.stall_polls = stall_polls;
  ParallelJoinPipeline pipeline(
      [&streams, indexed_probe, memcap, shards](int) {
        // The cap is per shard: split the total budget so the aggregate
        // in-memory state matches the single-cap intent.
        return std::make_unique<PJoin>(
            streams.schema_a, streams.schema_b,
            BenchJoinOptions(indexed_probe, memcap > 0 ? memcap / shards : 0));
      },
      popts);
  pipeline.set_result_callback([&m](const Tuple& t) { m.oracle.Add(t); });
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = pipeline.Run(streams.a, streams.b);
  const auto t1 = std::chrono::steady_clock::now();
  PJOIN_DCHECK(st.ok());
  m.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1e3;
  m.shard_stats = pipeline.shard_stats();
  for (const ShardStats& s : m.shard_stats) m.state_tuples += s.state_tuples;
  return m;
}

// ---- Deliberately stalled run (the CI health smoke) ----

/// A PJoin that sleeps per tuple. The router routes the whole (small)
/// workload far ahead of the grinding shard, so the batch the shard works on
/// was dispatched ever longer ago: /healthz reports 503 with a root-cause
/// chain naming shard 0 for roughly stall_tuples * stall_ms, then returns
/// to 200 when the run completes and the frontier catches up.
class SlowPJoin : public PJoin {
 public:
  SlowPJoin(SchemaPtr left, SchemaPtr right, JoinOptions options,
            int64_t sleep_ms)
      : PJoin(std::move(left), std::move(right), std::move(options)),
        sleep_ms_(sleep_ms) {}

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }

 private:
  const int64_t sleep_ms_;
};

void RunStalledConfig(const Cli& cli) {
  DomainSpec domain;
  domain.window_size = 16;
  StreamSpec spec;
  spec.num_tuples = cli.stall_tuples;
  // Frequent punctuations: purge and propagation work is queued behind the
  // stall early in the window, not just at end-of-stream.
  spec.punct_mean_interarrival_tuples = 4.0;
  spec.flush_punctuations_at_end = true;
  const GeneratedStreams streams = GenerateStreams(domain, spec, spec, 2004);
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  popts.batch_size = 1;
  ParallelJoinPipeline pipeline(
      [&streams, &cli](int) {
        return std::make_unique<SlowPJoin>(streams.schema_a, streams.schema_b,
                                           BenchJoinOptions(true),
                                           cli.stall_ms);
      },
      popts);
  int64_t results = 0;
  pipeline.set_result_callback([&results](const Tuple&) { ++results; });
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = pipeline.Run(streams.a, streams.b);
  const auto t1 = std::chrono::steady_clock::now();
  PJOIN_DCHECK(st.ok());
  std::printf("  stalled run done: %lld tuples/stream x %lld ms/tuple, "
              "%.1f s wall, %lld results\n",
              static_cast<long long>(cli.stall_tuples),
              static_cast<long long>(cli.stall_ms),
              std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0)
                      .count() /
                  1e3,
              static_cast<long long>(results));
  std::fflush(stdout);
}

// ---- Skew sweep: static sharding at a zipf ladder ----

/// Fraction of the run's results produced by the busiest shard (0.25 =
/// perfectly balanced at x4): how much of the join work the hottest key
/// pins to its owner. Deterministic for a seeded workload.
double BottleneckShare(const Measured& m) {
  int64_t max_results = 0;
  int64_t total = 0;
  for (const ShardStats& s : m.shard_stats) {
    max_results = std::max(max_results, s.results);
    total += s.results;
  }
  return total > 0 ? static_cast<double>(max_results) /
                         static_cast<double>(total)
                   : 0.0;
}

struct SkewPoint {
  double zipf_s = 0.0;
  Measured run;
  bool oracle_pass = false;  // matches the 1-thread reference
};

/// Tuples per punctuation in the skew sweep. The domain frontier (and with
/// it the identity of the hottest key) advances only on punctuation, so the
/// punctuation cadence sets how fast hotness drifts: a handful of reigns
/// per run.
double SkewPunctRate(const Cli& cli) {
  return static_cast<double>(cli.skew_tuples) / 4.0;
}

/// One zipf exponent: stream A skewed, B uniform (the celebrity-key shape —
/// skewing both sides would explode the result count quadratically), run
/// at the widest shard count, best of reps.
SkewPoint RunSkewPoint(const Cli& cli, double zipf_s, int shards) {
  DomainSpec domain;
  domain.window_size = cli.skew_window;
  StreamSpec spec_a;
  spec_a.num_tuples = cli.skew_tuples;
  spec_a.punct_mean_interarrival_tuples = SkewPunctRate(cli);
  spec_a.zipf_s = zipf_s;
  spec_a.flush_punctuations_at_end = true;
  StreamSpec spec_b = spec_a;
  spec_b.zipf_s = 0.0;
  const GeneratedStreams streams =
      GenerateStreams(domain, spec_a, spec_b, 2004);

  SkewPoint point;
  point.zipf_s = zipf_s;
  const Measured reference = RunSingle("skew_ref", streams, true);

  // Small shard rings, as on perfbench's `skew` workload: the router stays
  // close behind the shards instead of routing the whole input ahead.
  const int64_t ring_capacity = 16;
  for (int rep = 0; rep < cli.reps; ++rep) {
    Measured m = RunParallel(streams, shards, /*indexed_probe=*/true,
                             /*memcap=*/0, ring_capacity);
    if (rep == 0 || m.wall_ms < point.run.wall_ms) point.run = std::move(m);
  }
  point.oracle_pass = point.run.oracle == reference.oracle;
  return point;
}

void WriteSkewSweepJson(std::ofstream& out, const Cli& cli, int shards,
                        const std::vector<SkewPoint>& points) {
  out << "  \"skew_sweep\": {\n";
  out << "    \"config\": {\"tuples_per_stream\": " << cli.skew_tuples
      << ", \"window\": " << cli.skew_window << ", \"shards\": " << shards
      << ", \"punct_mean_interarrival_tuples\": " << SkewPunctRate(cli)
      << ", \"reps\": " << cli.reps << "},\n";
  out << "    \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SkewPoint& p = points[i];
    out << "      {\"zipf_s\": " << p.zipf_s
        << ", \"wall_ms\": " << p.run.wall_ms
        << ", \"bottleneck_share\": " << BottleneckShare(p.run)
        << ", \"oracle_pass\": " << (p.oracle_pass ? "true" : "false") << "}"
        << (i + 1 == points.size() ? "" : ",") << "\n";
  }
  out << "    ]\n  },\n";
}

// ---- Spill sweep: adaptive SpillManager vs the paper's global threshold ----

struct SpillMeasured {
  std::string mode;  // "adaptive" | "global"
  int64_t memcap = 0;
  double wall_ms = 0.0;
  Oracle oracle;
  SpillDecisionStats stats;
};

SpillMeasured RunSpillConfig(const GeneratedStreams& streams, SpillMode mode,
                             int64_t memcap) {
  SpillMeasured m;
  m.mode = mode == SpillMode::kAdaptive ? "adaptive" : "global";
  m.memcap = memcap;
  JoinOptions opts;
  opts.num_partitions = 16;
  opts.runtime.memory_threshold_tuples = memcap;
  // Lazy purging, never triggered at this workload's punctuation count: all
  // dead-state reclamation under pressure is the spill path's to claim, so
  // the two modes differ only in their spill decisions.
  opts.runtime.purge_threshold = 1 << 20;
  opts.spill_policy.mode = mode;
  PJoin join(streams.schema_a, streams.schema_b, opts);
  join.set_result_callback([&m](const Tuple& t) { m.oracle.Add(t); });
  JoinPipeline pipeline(&join, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = pipeline.Run(streams.a, streams.b);
  const auto t1 = std::chrono::steady_clock::now();
  PJOIN_DCHECK(st.ok());
  m.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1e3;
  m.stats = join.spill_stats();
  return m;
}

/// Heavy-zipf punctuated workload at a descending ladder of memory caps,
/// each cap once adaptive and once global-threshold. `oracle` receives the
/// uncapped reference every run must reproduce.
std::vector<SpillMeasured> RunSpillSweep(const Cli& cli, Oracle* oracle) {
  DomainSpec domain;  // default window: key lifetime ~ window * punct rate
  StreamSpec spec;
  spec.num_tuples = cli.spill_tuples;
  spec.punct_mean_interarrival_tuples = cli.spill_punct_rate;
  spec.zipf_s = cli.spill_zipf;
  const GeneratedStreams streams = GenerateStreams(domain, spec, spec, 2004);

  const SpillMeasured reference =
      RunSpillConfig(streams, SpillMode::kAdaptive, /*memcap=*/0);
  *oracle = reference.oracle;

  std::vector<SpillMeasured> runs;
  for (const int64_t divisor : {2, 4, 8}) {
    const int64_t cap = cli.memcap / divisor;
    if (cap <= 0) continue;
    runs.push_back(RunSpillConfig(streams, SpillMode::kAdaptive, cap));
    runs.push_back(RunSpillConfig(streams, SpillMode::kGlobalThreshold, cap));
  }
  return runs;
}

void WriteSpillSweepJson(std::ofstream& out, const Cli& cli,
                         const Oracle& oracle,
                         const std::vector<SpillMeasured>& runs) {
  out << "  \"spill_sweep\": {\n";
  out << "    \"config\": {\"tuples_per_stream\": " << cli.spill_tuples
      << ", \"zipf_s\": " << cli.spill_zipf
      << ", \"punct_mean_interarrival_tuples\": " << cli.spill_punct_rate
      << "},\n";
  out << "    \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const SpillMeasured& m = runs[i];
    const SpillDecisionStats& s = m.stats;
    out << "      {\"mode\": \"" << m.mode << "\", \"memcap\": " << m.memcap
        << ", \"wall_ms\": " << m.wall_ms
        << ", \"oracle_pass\": " << (m.oracle == oracle ? "true" : "false")
        << ", \"spills\": " << s.spills
        << ", \"tuples_spilled\": " << s.tuples_spilled
        << ", \"bytes_spilled\": " << s.bytes_spilled
        << ", \"early_purge_runs\": " << s.early_purge_runs
        << ", \"tuples_early_purged\": " << s.tuples_early_purged
        << ", \"bytes_early_purged\": " << s.bytes_early_purged
        << ", \"spill_failures\": " << s.spill_failures
        << ", \"budget_overruns\": " << s.budget_overruns
        << ", \"degraded\": " << (s.degraded ? "true" : "false") << "}"
        << (i + 1 == runs.size() ? "" : ",") << "\n";
  }
  out << "    ]\n  },\n";
}

void WriteJson(const std::string& path, const Cli& cli,
               const Measured& baseline, const Measured& indexed,
               const std::vector<Measured>& parallel,
               const Oracle& spill_oracle,
               const std::vector<SpillMeasured>& spill_runs, int skew_shards,
               const std::vector<SkewPoint>& skew_points) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"par_scaling\",\n";
  out << "  \"config\": {\"tuples_per_stream\": " << cli.tuples
      << ", \"punct_mean_interarrival_tuples\": " << cli.punct_rate
      << ", \"num_partitions\": 16, \"reps\": " << cli.reps << "},\n";
  if (!spill_runs.empty()) {
    WriteSpillSweepJson(out, cli, spill_oracle, spill_runs);
  }
  if (!skew_points.empty()) {
    WriteSkewSweepJson(out, cli, skew_shards, skew_points);
  }
  auto emit_run = [&out](const Measured& m, const Measured& base,
                         bool last) {
    out << "    {\"name\": \"" << m.name << "\", \"shards\": " << m.shards
        << ", \"indexed\": " << (m.indexed ? "true" : "false")
        << ", \"wall_ms\": " << m.wall_ms
        << ", \"results\": " << m.oracle.count
        << ", \"throughput_results_per_sec\": " << m.throughput()
        << ", \"speedup_vs_scan_baseline\": "
        << (m.wall_ms > 0 ? base.wall_ms / m.wall_ms : 0.0)
        << ", \"oracle_pass\": " << (m.oracle == base.oracle ? "true" : "false")
        << ", \"state_tuples\": " << m.state_tuples;
    if (!m.shard_stats.empty()) {
      out << ", \"shard_occupancy\": [";
      for (size_t i = 0; i < m.shard_stats.size(); ++i) {
        const ShardStats& s = m.shard_stats[i];
        out << (i ? ", " : "") << "{\"shard\": " << s.shard
            << ", \"tuples\": " << s.tuples << ", \"results\": " << s.results
            << ", \"state_tuples\": " << s.state_tuples << "}";
      }
      out << "]";
    }
    out << "}" << (last ? "" : ",") << "\n";
  };
  out << "  \"runs\": [\n";
  emit_run(baseline, baseline, false);
  emit_run(indexed, baseline, parallel.empty());
  for (size_t i = 0; i < parallel.size(); ++i) {
    emit_run(parallel[i], baseline, i + 1 == parallel.size());
  }
  out << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) return 1;

  PrintHeader("par_scaling", "Partition-parallel scaling (PJoin)",
              "probe-heavy workload: " + std::to_string(cli.tuples) +
                  " tuples/stream, 1 punctuation per " +
                  std::to_string(static_cast<int64_t>(cli.punct_rate)) +
                  " tuples");

  DomainSpec domain;
  domain.window_size = cli.window;
  StreamSpec spec;
  spec.num_tuples = cli.tuples;
  spec.punct_mean_interarrival_tuples = cli.punct_rate;
  spec.flush_punctuations_at_end = true;
  StreamSpec spec_a = spec;
  spec_a.zipf_s = cli.zipf;  // A skewed, B uniform
  const GeneratedStreams streams = GenerateStreams(domain, spec_a, spec, 2004);

  if (!cli.trace.empty()) {
    obs::Tracer::Global().Start();
    TRACE_SET_THREAD_NAME("bench-main");
  }

  std::unique_ptr<obs::IntrospectionServer> server;
  if (cli.serve_port >= 0) {
    server = std::make_unique<obs::IntrospectionServer>();
    const Status st = server->Start(cli.serve_port);
    if (!st.ok()) {
      std::fprintf(stderr, "introspection server failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("  serving introspection on http://127.0.0.1:%d\n",
                server->port());
    std::fflush(stdout);  // scrape scripts poll for this line
  }

  // The watchdog classifies /healthz and feeds pjoin_frontier_lag_seconds;
  // a stalled run is pointless without it, so --stall_ms implies --health.
  const bool health = cli.health || cli.stall_ms > 0;
  if (health) {
    obs::HealthMonitor::Global().Start();
  }
  if (cli.stall_ms > 0) {
    std::printf("  running wedged x1 configuration (%lld ms/tuple)...\n",
                static_cast<long long>(cli.stall_ms));
    std::fflush(stdout);
    RunStalledConfig(cli);
  }

  // Spill sweep first: its counters populate the pjoin_spill_* metrics
  // early, so live scrapers attaching any time after the server banner see
  // nonzero spill cells.
  Oracle spill_oracle;
  std::vector<SpillMeasured> spill_runs;
  if (cli.memcap > 0) {
    spill_runs = RunSpillSweep(cli, &spill_oracle);
  }

  // The configuration sweep, measured best-of-N wall clock. Repetitions are
  // interleaved round-robin (rep 0 of every configuration, then rep 1 of
  // every configuration, ...) rather than back-to-back, so a noisy
  // scheduler window on a shared runner degrades every configuration's
  // sample alike instead of condemning whichever one it landed on — the
  // perf gate compares cross-run ratios, which interleaving keeps fair.
  // The result oracle must agree across repetitions of a configuration.
  std::vector<std::function<Measured()>> configs;
  configs.push_back([&] { return RunSingle("scan_1thread", streams, false); });
  configs.push_back([&] { return RunSingle("indexed_1thread", streams, true); });
  for (const int shards : cli.shards) {
    configs.push_back(
        [&, shards] { return RunParallel(streams, shards,
                                         /*indexed_probe=*/true,
                                         /*memcap=*/0, cli.ring,
                                         cli.stall_polls); });
  }
  if (!cli.shards.empty()) {
    // The widest shard count with the seed's scan probe: isolates how much
    // of the parallel_x*_indexed speedup is the pipeline vs the index.
    configs.push_back([&] {
      return RunParallel(streams, cli.shards.back(), /*indexed_probe=*/false,
                         /*memcap=*/0, cli.ring, cli.stall_polls);
    });
  }
  if (cli.memcap > 0 && !cli.shards.empty()) {
    // One memory-capped configuration at the widest shard count: state
    // relocation and the disk join run under pressure, so the spill path
    // is measured (and traced) alongside the in-memory sweep.
    configs.push_back([&] {
      return RunParallel(streams, cli.shards.back(), /*indexed_probe=*/true,
                         cli.memcap, cli.ring, cli.stall_polls);
    });
  }
  std::vector<Measured> measured(configs.size());
  for (int rep = 0; rep < cli.reps; ++rep) {
    for (size_t i = 0; i < configs.size(); ++i) {
      Measured m = configs[i]();
      if (rep == 0) {
        measured[i] = std::move(m);
        continue;
      }
      PJOIN_DCHECK(m.oracle == measured[i].oracle);
      if (m.wall_ms < measured[i].wall_ms) measured[i] = std::move(m);
    }
  }
  const Measured& baseline = measured[0];
  const Measured& indexed = measured[1];
  std::vector<Measured> parallel(measured.begin() + 2, measured.end());

  bool all_pass = indexed.oracle == baseline.oracle;
  std::printf("  %-18s %10s %12s %10s %8s\n", "run", "wall_ms",
              "results/s", "speedup", "oracle");
  auto report = [&](const Measured& m) {
    const bool pass = m.oracle == baseline.oracle;
    std::printf("  %-18s %10.1f %12.0f %9.2fx %8s\n", m.name.c_str(),
                m.wall_ms, m.throughput(),
                m.wall_ms > 0 ? baseline.wall_ms / m.wall_ms : 0.0,
                pass ? "PASS" : "FAIL");
  };
  report(baseline);
  report(indexed);
  for (const Measured& m : parallel) {
    all_pass = all_pass && m.oracle == baseline.oracle;
    report(m);
  }

  // Skew sweep: static sharding across the zipf ladder. The hottest key
  // stays with its owner, so the bottleneck share shows how much of the
  // join work skew pins to one shard.
  std::vector<SkewPoint> skew_points;
  const int skew_shards = cli.shards.empty() ? 4 : cli.shards.back();
  if (cli.skew_sweep && skew_shards > 1) {
    std::printf("  skew sweep (%lld tuples/stream, window %lld, x%d):\n",
                static_cast<long long>(cli.skew_tuples),
                static_cast<long long>(cli.skew_window), skew_shards);
    std::printf("  %-8s %10s %9s %7s\n", "zipf_s", "wall_ms", "share",
                "oracle");
    for (const double s : cli.skew_list) {
      SkewPoint point = RunSkewPoint(cli, s, skew_shards);
      all_pass = all_pass && point.oracle_pass;
      std::printf("  %-8.2f %10.1f %9.3f %7s\n", point.zipf_s,
                  point.run.wall_ms, BottleneckShare(point.run),
                  point.oracle_pass ? "PASS" : "FAIL");
      skew_points.push_back(std::move(point));
    }
  }

  if (!spill_runs.empty()) {
    std::printf("  spill sweep (zipf %.2f, %lld tuples/stream):\n",
                cli.spill_zipf, static_cast<long long>(cli.spill_tuples));
    std::printf("  %-10s %8s %12s %14s %8s\n", "mode", "memcap",
                "bytes_spill", "bytes_epurged", "oracle");
    for (const SpillMeasured& m : spill_runs) {
      const bool pass = m.oracle == spill_oracle;
      all_pass = all_pass && pass;
      std::printf("  %-10s %8lld %12lld %14lld %8s\n", m.mode.c_str(),
                  static_cast<long long>(m.memcap),
                  static_cast<long long>(m.stats.bytes_spilled),
                  static_cast<long long>(m.stats.bytes_early_purged),
                  pass ? "PASS" : "FAIL");
    }
  }

  WriteJson(cli.out, cli, baseline, indexed, parallel, spill_oracle,
            spill_runs, skew_shards, skew_points);
  std::printf("  wrote %s\n", cli.out.c_str());

  if (server != nullptr && cli.serve_linger_ms > 0) {
    std::printf(
        "  lingering %lld ms for scrapes (GET /quitquitquit ends early)\n",
        static_cast<long long>(cli.serve_linger_ms));
    std::fflush(stdout);
    const int widest = cli.shards.empty() ? 1 : cli.shards.back();
    const Stopwatch linger;
    while (linger.ElapsedMicros() < cli.serve_linger_ms * 1000 &&
           !server->quit_requested()) {
      // Keep a pipeline running so scrapes catch moving per-shard gauges
      // (ring occupancies, queue depths) in /statusz, not just end-of-run
      // values.
      const Measured again = RunParallel(streams, widest,
                                         /*indexed_probe=*/true,
                                         /*memcap=*/0, cli.ring,
                                         cli.stall_polls);
      all_pass = all_pass && again.oracle == baseline.oracle;
    }
  }

  if (health) {
    obs::HealthMonitor::Global().Stop();
  }

  if (!cli.trace.empty()) {
    obs::Tracer::Global().Stop();
    const Status st = obs::WriteChromeTraceFile(cli.trace);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("  wrote %s (%lld events dropped by ring overflow)\n",
                cli.trace.c_str(),
                static_cast<long long>(obs::Tracer::Global().dropped_events()));
  }
  if (!cli.metrics.empty()) {
    std::ofstream mout(cli.metrics);
    mout << obs::MetricsRegistry::Global().ToJson();
    if (!mout) {
      std::fprintf(stderr, "metrics export to %s failed\n",
                   cli.metrics.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", cli.metrics.c_str());
  }

  PrintShapeCheck("parallel output multiset == single-threaded reference",
                  all_pass);
  double best_speedup = 0;
  for (const Measured& m : parallel) {
    if (m.wall_ms > 0) {
      best_speedup = std::max(best_speedup, baseline.wall_ms / m.wall_ms);
    }
  }
  PrintMetric("best parallel speedup vs scan baseline", best_speedup, "x");

  if (cli.check && !all_pass) return 1;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pjoin

int main(int argc, char** argv) { return pjoin::bench::Main(argc, argv); }

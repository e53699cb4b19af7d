// perfbench: the repository benchmark. README.md in this directory explains
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// The library is driven only through public entry points and timed from
// outside: ParallelJoinPipeline::Run, JoinOperator::OnElement (a
// single-threaded driver feeding arrival order, ties to the left), a PJoin
// subclass that times its OnTupleHashed / OnPunctuation / OnStreamsStalled /
// Finish overrides, a timing SpillStore decorator around SimulatedDisk
// (installed through JoinOptions::spill_factory), and the result and
// punctuation callbacks.
//
// Usage:
//   perfbench --workload probe|skew|spill --seed N --seconds S --trace 0|1
//             [--out FILE] [--chrome FILE] [--git_sha SHA]
//   perfbench --selftest [--seed N]
//
// --trace 0 measures the end-to-end metrics with every span disabled.
// --trace 1 alternates untraced and traced repetitions: the traced ones give
// the per-layer metrics, the pair gives the tracing overhead. Every
// repetition is checked against an uncapped single-threaded reference
// computed before measuring. The last line of stdout is one JSON object.

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "ops/parallel_pipeline.h"
#include "span_trace.h"
#include "storage/simulated_disk.h"

namespace perfbench {
namespace {

using pjoin::ElementKind;
using pjoin::GeneratedStreams;
using pjoin::JoinOperator;
using pjoin::JoinOptions;
using pjoin::Punctuation;
using pjoin::Status;
using pjoin::StreamElement;
using pjoin::Tuple;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string why;
  /// Shard workers of a ParallelJoinPipeline; 0 = the single-threaded
  /// OnElement driver.
  int shards = 0;
  int64_t tuples = 0;  // per stream
  int64_t window = 20;  // open keys
  double zipf_a = 0.0;
  double zipf_b = 0.0;
  double punct_every = 0.0;  // mean tuples between punctuations, per stream
  bool flush_at_end = true;
  int64_t purge_threshold = 1;
  pjoin::PurgeMode purge_mode = pjoin::PurgeMode::kScan;
  int64_t propagate_every = 0;  // push propagation; 0 = only at finish
  int64_t memcap = 0;           // memory cap in state tuples; 0 = none
  bool repartition = false;
  size_t ring = 0;  // input and shard ring capacity; 0 = library default
  /// Input sets per run, each generated from its own sub-seed of --seed.
  int input_sets = 4;
};

Workload MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  auto scaled = [scale](int64_t n) {
    return std::max<int64_t>(1, static_cast<int64_t>(std::llround(n * scale)));
  };
  if (name == "probe") {
    w.why =
        "uniform keys, sparse punctuations, wide window: probe/insert and the "
        "spine do the work; purge, storage and repartitioning are bypassed";
    w.shards = 2;
    w.tuples = scaled(150000);
    // Results grow as tuples^2/window: scaling the window with the tuple
    // count keeps results per tuple where par_scaling has them (40000
    // tuples over 16384 keys).
    w.window = scaled(61440);
    w.punct_every = 2000.0;
    // A scan purge would walk the whole (large) opposite state at every
    // punctuation and dominate the run; the indexed purge visits only the
    // punctuated key's bucket, so probe and insert stay the main work.
    w.purge_mode = pjoin::PurgeMode::kIndexed;
  } else if (name == "skew") {
    w.why =
        "zipf 1.6 against uniform keys with repartitioning on: the only "
        "workload where hot-key replication, migration and shard imbalance "
        "matter, and results per tuple are high";
    w.shards = 2;
    // Results grow as tuples^2/4096: 40000 tuples per stream give about 5
    // results per input tuple. Zipf generation costs O(window) per tuple
    // (seconds per set-up round, one round per input set), which bounds the
    // size.
    w.tuples = scaled(40000);
    w.window = 4096;
    w.zipf_a = 1.6;
    // The hot key drifts only when punctuations advance the domain: about
    // forty reigns per input set, and about 320 punctuation-delay samples
    // per run. Push propagation stays off (the library default), so
    // punctuations release at end-of-stream. With it on, a few punctuations
    // per set wait behind hot-key handoffs; which ones is up to the seed, and
    // four sets are too few to make those tails steady.
    w.punct_every = static_cast<double>(w.tuples) / 40.0;
    w.repartition = true;
    // Small rings, as par_scaling's skew sweep: the router cannot run far
    // ahead of the shards, so handoffs land mid-run.
    w.ring = 16;
  } else if (name == "spill") {
    w.why =
        "single-threaded PJoin, zipf 1.2, dense punctuations, push "
        "propagation every 2, memory cap below the uncapped peak: purge, "
        "index build, propagation, spilling and disk joins run constantly";
    w.shards = 0;
    // Every punctuation stays in the punctuation sets, so purge and
    // propagation cost grows with the stream: cost is superlinear in length.
    // Peak state and the delay tail hinge on the seed: many short input
    // sets, each with its own sub-seed, make their mean and pool steady.
    w.tuples = scaled(5000);
    w.input_sets = 32;
    w.window = 20;
    w.zipf_a = 1.2;
    w.zipf_b = 1.2;
    w.punct_every = 20.0;
    w.flush_at_end = false;
    w.purge_threshold = 4;
    w.propagate_every = 2;  // the Fig 14 setting
    w.memcap = 256;
  }
  return w;
}

const char* const kWorkloadNames[] = {"probe", "skew", "spill"};

GeneratedStreams Generate(const Workload& w, uint64_t seed) {
  pjoin::DomainSpec domain;
  domain.window_size = w.window;
  pjoin::StreamSpec a;
  a.num_tuples = w.tuples;
  a.punct_mean_interarrival_tuples = w.punct_every;
  a.zipf_s = w.zipf_a;
  a.flush_punctuations_at_end = w.flush_at_end;
  pjoin::StreamSpec b = a;
  b.zipf_s = w.zipf_b;
  return pjoin::GenerateStreams(domain, a, b, seed);
}

JoinOptions MakeJoinOptions(const Workload& w, bool capped) {
  JoinOptions opts;
  opts.num_partitions = 16;
  opts.indexed_probe = true;
  opts.runtime.purge_threshold = w.purge_threshold;
  opts.purge_mode = w.purge_mode;
  opts.runtime.propagate_count_threshold = w.propagate_every;
  if (capped && w.memcap > 0) {
    // The cap is per join: split it so the aggregate matches the intent.
    opts.runtime.memory_threshold_tuples = w.memcap / std::max(1, w.shards);
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Output checking
// ---------------------------------------------------------------------------

/// Order-independent fingerprint of the result multiset (par_scaling's
/// scheme): count plus a commutative sum of per-row hashes.
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
  bool operator==(const Oracle& o) const {
    return count == o.count && hash == o.hash;
  }
};

/// Input punctuation -> release of its output image. Entry times are noted
/// by whichever thread first sees the punctuation (the single-threaded
/// driver when it feeds it, otherwise the shard join); releases are matched
/// on the thread that receives the output punctuation, by image, to the
/// latest entered input punctuation with that image. Both streams' constant
/// punctuations on key k have the same image, and the image can usually go
/// out only once both have arrived: measuring from the later one leaves out
/// how far one input stream's punctuations lag the other's, which the
/// seed decides, and keeps what the join adds.
class PunctClock {
 public:
  PunctClock(const JoinOperator& join, const GeneratedStreams& streams) {
    int ordinal = 0;
    for (int side = 0; side < 2; ++side) {
      for (const StreamElement& e : side == 0 ? streams.a : streams.b) {
        if (e.kind() != ElementKind::kPunctuation) continue;
        ordinal_[&e.punctuation()] = ordinal;
        by_image_[join.MakeOutputPunct(side, e.punctuation()).ToString()]
            .push_back(ordinal);
        ++ordinal;
      }
    }
    entry_ns_ = std::make_unique<std::atomic<int64_t>[]>(ordinal);
    size_ = ordinal;
  }

  void Reset() {
    for (int i = 0; i < size_; ++i) entry_ns_[i].store(0);
    delays_ms_.clear();
  }

  void NoteEntry(const Punctuation* punct) {
    const auto it = ordinal_.find(punct);
    if (it == ordinal_.end()) return;
    int64_t expected = 0;
    entry_ns_[it->second].compare_exchange_strong(expected, NowNs());
  }

  void NoteRelease(const Punctuation& image) {
    const int64_t now = NowNs();
    const auto it = by_image_.find(image.ToString());
    if (it == by_image_.end()) return;
    int64_t latest_ns = 0;
    for (const int ord : it->second) {
      latest_ns = std::max(latest_ns, entry_ns_[ord].load());
    }
    if (latest_ns == 0) return;
    delays_ms_.push_back(static_cast<double>(now - latest_ns) / 1e6);
  }

  const std::vector<double>& delays_ms() const { return delays_ms_; }

 private:
  std::unordered_map<const Punctuation*, int> ordinal_;
  std::unordered_map<std::string, std::vector<int>> by_image_;
  std::unique_ptr<std::atomic<int64_t>[]> entry_ns_;
  std::vector<double> delays_ms_;
  int size_ = 0;
};

/// The run's sink: result fingerprint, output-punctuation count, and the
/// §3.3 invariant — no result arrives after a released punctuation that
/// covers it. Constant-key releases go into a key set; anything else is
/// matched pattern by pattern.
class Sink {
 public:
  /// `left_width` and `right_key` locate the right key in result tuples.
  Sink(PunctClock* clock, size_t left_width, size_t right_key)
      : clock_(clock), right_key_pos_(left_width + right_key) {}

  void OnResult(const Tuple& t) {
    oracle_.Add(t);
    if (!closed_keys_.empty() &&
        closed_keys_.count(t.field(0).AsInt64()) > 0) {
      ++violations_;
    }
    for (const Punctuation& p : closed_other_) {
      if (p.Matches(t)) ++violations_;
    }
  }

  void OnPunct(const Punctuation& p) {
    ++puncts_;
    if (clock_ != nullptr) clock_->NoteRelease(p);
    bool key_only = p.pattern(0).IsConstant() &&
                    p.pattern(right_key_pos_).IsConstant() &&
                    p.pattern(right_key_pos_).constant() ==
                        p.pattern(0).constant();
    for (size_t i = 1; key_only && i < p.num_patterns(); ++i) {
      if (i != right_key_pos_ && !p.pattern(i).IsWildcard()) key_only = false;
    }
    if (key_only) {
      closed_keys_.insert(p.pattern(0).constant().AsInt64());
    } else {
      closed_other_.push_back(p);
    }
  }

  const Oracle& oracle() const { return oracle_; }
  int64_t puncts() const { return puncts_; }
  int64_t violations() const { return violations_; }

 private:
  PunctClock* clock_;
  const size_t right_key_pos_;
  Oracle oracle_;
  int64_t puncts_ = 0;
  int64_t violations_ = 0;
  std::unordered_set<int64_t> closed_keys_;
  std::vector<Punctuation> closed_other_;
};

// ---------------------------------------------------------------------------
// State and memory sampling
// ---------------------------------------------------------------------------

void RaiseTo(std::atomic<int64_t>* peak, int64_t value) {
  int64_t prev = peak->load();
  while (value > prev && !peak->compare_exchange_weak(prev, value)) {
  }
}

/// Most tuples retained (memory + disk + purge buffer), summed over joins at
/// each sample: every join writes its latest count into its slot.
class StatePeak {
 public:
  explicit StatePeak(int slots) : now_(static_cast<size_t>(slots)) {}

  void Note(int slot, int64_t tuples) {
    now_[static_cast<size_t>(slot)].store(tuples);
    int64_t sum = 0;
    for (const auto& s : now_) sum += s.load();
    RaiseTo(&peak_, sum);
  }
  int64_t peak() const { return peak_.load(); }

 private:
  std::vector<std::atomic<int64_t>> now_;
  std::atomic<int64_t> peak_{0};
};

/// The process's resident high-water mark (VmHWM) in MB. Every repetition
/// runs in a child forked for it alone, so this is that run's own peak: the
/// inputs it shares with the parent plus everything the run allocated.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1e3;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Layer wrappers
// ---------------------------------------------------------------------------

/// SimulatedDisk with every data call timed on its join's recorder.
class TimedSpillStore : public pjoin::SpillStore {
 public:
  explicit TimedSpillStore(SpanRecorder* recorder) : recorder_(recorder) {}

  Status AppendBatch(int partition,
                     const std::vector<std::string>& records) override {
    ScopedSpan span(recorder_, Layer::kStorageAppend);
    return disk_.AppendBatch(partition, records);
  }
  pjoin::Result<std::vector<std::string>> ReadPartition(
      int partition) override {
    ScopedSpan span(recorder_, Layer::kStorageRead);
    return disk_.ReadPartition(partition);
  }
  Status ClearPartition(int partition) override {
    ScopedSpan span(recorder_, Layer::kStorageClear);
    return disk_.ClearPartition(partition);
  }
  int64_t PartitionRecordCount(int partition) const override {
    return disk_.PartitionRecordCount(partition);
  }
  int64_t TotalRecordCount() const override {
    return disk_.TotalRecordCount();
  }
  std::vector<int> NonEmptyPartitions() const override {
    return disk_.NonEmptyPartitions();
  }
  const pjoin::IoStats& io_stats() const override { return disk_.io_stats(); }

 private:
  SpanRecorder* recorder_;
  pjoin::SimulatedDisk disk_;
};

/// What the benchmark keeps about one join (one shard, or the single join).
struct JoinProbe {
  JoinProbe(int slot, SpanRecorder* recorder)
      : slot(slot), recorder(recorder) {}
  const int slot;
  /// The recorder of the thread running this join.
  SpanRecorder* const recorder;
  int64_t tuples = 0;
  int64_t puncts_in = 0;
  /// Owned by the join's states; valid while the join lives.
  std::vector<TimedSpillStore*> stores;
};

/// Run-wide samplers shared by every join of one repetition.
struct RunContext {
  PunctClock* clock = nullptr;
  StatePeak* state_peak = nullptr;
};

/// PJoin with its layer entry points timed. Tuple calls are counted always
/// and timed only when the recorder is enabled; punctuations and finish also
/// sample the retained state.
class TimedPJoin : public pjoin::PJoin {
 public:
  TimedPJoin(pjoin::SchemaPtr left, pjoin::SchemaPtr right, JoinOptions opts,
             JoinProbe* probe, RunContext ctx)
      : PJoin(std::move(left), std::move(right), std::move(opts)),
        probe_(probe),
        ctx_(ctx) {}

  Status OnStreamsStalled() override {
    ScopedSpan span(probe_->recorder, Layer::kJoinStall);
    return PJoin::OnStreamsStalled();
  }

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    ++probe_->tuples;
    ScopedSpan span(probe_->recorder, Layer::kJoinTuple);
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }

  Status OnPunctuation(int side, const Punctuation& punct) override {
    ctx_.clock->NoteEntry(&punct);
    ++probe_->puncts_in;
    Sample();
    Status st;
    {
      ScopedSpan span(probe_->recorder, Layer::kJoinPunct);
      st = PJoin::OnPunctuation(side, punct);
    }
    Sample();
    return st;
  }

  Status Finish() override {
    Sample();
    Status st;
    {
      ScopedSpan span(probe_->recorder, Layer::kJoinFinish);
      st = PJoin::Finish();
    }
    Sample();
    return st;
  }

 private:
  void Sample() { ctx_.state_peak->Note(probe_->slot, total_state_tuples()); }

  JoinProbe* probe_;
  RunContext ctx_;
};

std::unique_ptr<TimedPJoin> MakeTimedJoin(const Workload& w,
                                          const GeneratedStreams& streams,
                                          JoinProbe* probe, RunContext ctx) {
  JoinOptions opts = MakeJoinOptions(w, /*capped=*/true);
  opts.spill_factory = [probe]() -> std::unique_ptr<pjoin::SpillStore> {
    auto store = std::make_unique<TimedSpillStore>(probe->recorder);
    probe->stores.push_back(store.get());
    return store;
  };
  return std::make_unique<TimedPJoin>(streams.schema_a, streams.schema_b,
                                      std::move(opts), probe, ctx);
}

pjoin::ParallelPipelineOptions MakePipelineOptions(const Workload& w) {
  pjoin::ParallelPipelineOptions popts;
  popts.num_shards = w.shards;
  if (w.ring > 0) {
    popts.input_buffer_capacity = w.ring;
    popts.shard_queue_capacity = w.ring;
  }
  if (w.repartition) {
    popts.repartition.enabled = true;
    // par_scaling's skew sweep setting: the drifting hot key's diluted
    // boundary windows sit around 1.2x.
    popts.repartition.imbalance_trigger = 1.15;
  }
  return popts;
}

/// Feeds both streams to `join` in arrival order, ties to the left.
Status DriveInArrivalOrder(JoinOperator* join, const GeneratedStreams& s,
                           PunctClock* clock) {
  size_t i = 0;
  size_t j = 0;
  while (i < s.a.size() || j < s.b.size()) {
    const bool left = j >= s.b.size() ||
                      (i < s.a.size() && s.a[i].arrival() <= s.b[j].arrival());
    const StreamElement& e = left ? s.a[i++] : s.b[j++];
    if (clock != nullptr && e.kind() == ElementKind::kPunctuation) {
      clock->NoteEntry(&e.punctuation());
    }
    const Status st = join->OnElement(left ? 0 : 1, e);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct Reference {
  Oracle oracle;
  int64_t puncts = 0;
};

/// A single-threaded reference: a plain PJoin fed in arrival order.
/// Computed once, outside set-up and every timed region.
Reference RunReference(const Workload& w, const GeneratedStreams& streams,
                       bool capped) {
  pjoin::PJoin join(streams.schema_a, streams.schema_b,
                    MakeJoinOptions(w, capped));
  Sink sink(nullptr, streams.schema_a->num_fields(), 0);
  join.set_result_callback([&sink](const Tuple& t) { sink.OnResult(t); });
  join.set_punct_callback([&sink](const Punctuation& p) { sink.OnPunct(p); });
  const Status st = DriveInArrivalOrder(&join, streams, nullptr);
  if (!st.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return Reference{sink.oracle(), sink.puncts()};
}

struct ShardLine {
  double busy_s = 0;
  double idle_s = 0;
  int64_t tuples = 0;
  int64_t results = 0;
};

struct LayerLine {
  int64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};

struct RepResult {
  bool traced = false;
  bool ok = true;
  std::string error;
  double wall_s = 0;
  double tuples_per_s = 0;
  int64_t peak_state = 0;
  double peak_rss_mb = 0;
  int set = 0;  // index of the input set this repetition ran
  int64_t delay_samples = 0;
  double delay_p50_ms = 0;
  double delay_p99_ms = 0;
  std::vector<double> delays_ms;
  std::vector<ShardLine> shards;
  std::map<std::string, double> layer;  // per-layer metrics of this rep
  std::map<std::string, LayerLine> spans;  // per wrapped call
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A workload with its generated inputs and everything computed before the
/// timed repetitions.
struct Bench {
  Workload w;
  GeneratedStreams streams;
  std::vector<double> setup_rounds_s;
  Reference reference;
  std::unique_ptr<PunctClock> clock;
  int64_t input_tuples = 0;
  std::string chrome_path;  // written from the first traced rep
  bool chrome_written = false;
};

constexpr size_t kKeepSpans = 20000;

RepResult RunRep(Bench* b, bool traced) {
  const Workload& w = b->w;
  const GeneratedStreams& streams = b->streams;
  const int joins = std::max(1, w.shards);
  RepResult r;
  r.traced = traced;

  b->clock->Reset();
  StatePeak state_peak(joins);
  RunContext ctx{b->clock.get(), &state_peak};
  // One recorder per thread: the caller's (Run, the merger's sink calls, or
  // the whole single-threaded run, where sink spans nest inside the join
  // spans that emit them) plus one per shard worker.
  SpanRecorder caller("caller", kKeepSpans);
  caller.set_enabled(traced);
  std::vector<std::unique_ptr<SpanRecorder>> shard_recorders;
  std::vector<std::unique_ptr<JoinProbe>> probes;
  for (int s = 0; s < joins; ++s) {
    SpanRecorder* rec = &caller;
    if (w.shards > 0) {
      shard_recorders.push_back(std::make_unique<SpanRecorder>(
          "shard " + std::to_string(s), kKeepSpans));
      rec = shard_recorders.back().get();
      rec->set_enabled(traced);
    }
    probes.push_back(std::make_unique<JoinProbe>(s, rec));
  }
  Sink sink(b->clock.get(), streams.schema_a->num_fields(), 0);
  auto on_result = [&sink, &caller](const Tuple& t) {
    ScopedSpan span(&caller, Layer::kSinkResult);
    sink.OnResult(t);
  };
  auto on_punct = [&sink, &caller](const Punctuation& p) {
    ScopedSpan span(&caller, Layer::kSinkPunct);
    sink.OnPunct(p);
  };

  std::unique_ptr<pjoin::ParallelJoinPipeline> pipeline;
  std::unique_ptr<TimedPJoin> single;
  std::vector<JoinOperator*> join_ptrs;
  if (w.shards > 0) {
    pipeline = std::make_unique<pjoin::ParallelJoinPipeline>(
        [&](int shard) -> std::unique_ptr<JoinOperator> {
          return MakeTimedJoin(w, streams, probes[shard].get(), ctx);
        },
        MakePipelineOptions(w));
    pipeline->set_result_callback(on_result);
    pipeline->set_punct_callback(on_punct);
    for (int s = 0; s < joins; ++s) join_ptrs.push_back(pipeline->shard_join(s));
  } else {
    single = MakeTimedJoin(w, streams, probes[0].get(), ctx);
    single->set_result_callback(on_result);
    single->set_punct_callback(on_punct);
    join_ptrs.push_back(single.get());
  }

  Status st;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(&caller, Layer::kRun);
    st = pipeline != nullptr
             ? pipeline->Run(streams.a, streams.b)
             : DriveInArrivalOrder(single.get(), streams, b->clock.get());
  }
  const int64_t t1 = NowNs();

  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.tuples_per_s = static_cast<double>(b->input_tuples) / r.wall_s;
  r.peak_state = state_peak.peak();
  r.peak_rss_mb = PeakRssMb();
  const std::vector<double>& delays = b->clock->delays_ms();
  r.delay_samples = static_cast<int64_t>(delays.size());
  r.delay_p50_ms = Quantile(delays, 0.5);
  r.delay_p99_ms = Quantile(delays, 0.99);
  r.delays_ms = delays;

  // ---- Correctness ----
  if (!st.ok()) {
    r.ok = false;
    r.error = "status: " + st.ToString();
  } else if (!(sink.oracle() == b->reference.oracle)) {
    r.ok = false;
    r.error = "result multiset differs from the reference (" +
              std::to_string(sink.oracle().count) + " vs " +
              std::to_string(b->reference.oracle.count) + " results)";
  } else if (sink.puncts() != b->reference.puncts) {
    r.ok = false;
    r.error = "output punctuations " + std::to_string(sink.puncts()) +
              " vs reference " + std::to_string(b->reference.puncts);
  } else if (sink.violations() > 0) {
    r.ok = false;
    r.error = std::to_string(sink.violations()) +
              " results arrived after a released punctuation covering them";
  }

  // ---- Per-layer metrics ----
  std::vector<const SpanRecorder*> recorders = {&caller};
  for (const auto& rec : shard_recorders) recorders.push_back(rec.get());
  auto total_s = [&recorders](Layer l) {
    int64_t ns = 0;
    for (const SpanRecorder* rec : recorders) ns += rec->total_ns(l);
    return static_cast<double>(ns) / 1e9;
  };
  std::map<std::string, double> self_by_module;
  for (int i = 0; i < kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    LayerLine line;
    for (const SpanRecorder* rec : recorders) {
      line.calls += rec->calls(l);
      line.total_s += static_cast<double>(rec->total_ns(l)) / 1e9;
      line.self_s += static_cast<double>(rec->self_ns(l)) / 1e9;
    }
    r.spans[LayerName(l)] = line;
    self_by_module[LayerModule(l)] += line.self_s;
  }

  pjoin::CounterSet counters;
  for (JoinOperator* j : join_ptrs) counters.Merge(j->counters());
  std::map<std::string, double>& m = r.layer;
  m["join.tuple_s"] = total_s(Layer::kJoinTuple);
  m["join.punct_s"] = total_s(Layer::kJoinPunct);
  m["join.finish_s"] = total_s(Layer::kJoinFinish);
  m["join.stall_s"] = total_s(Layer::kJoinStall);
  int64_t tuples = 0;
  int64_t puncts_in = 0;
  for (const auto& p : probes) {
    tuples += p->tuples;
    puncts_in += p->puncts_in;
  }
  m["join.tuples"] = static_cast<double>(tuples);
  m["join.results"] = static_cast<double>(sink.oracle().count);
  m["join.puncts_in"] = static_cast<double>(puncts_in);
  m["join.puncts_out"] = static_cast<double>(sink.puncts());
  m["join.otf_drops"] = static_cast<double>(counters.Get("otf_drops"));
  m["join.propagation_runs"] =
      static_cast<double>(counters.Get("propagation_runs"));
  m["join.probe_hit_ratio"] =
      Ratio(static_cast<double>(sink.oracle().count),
            static_cast<double>(counters.Get("probe_comparisons")));
  m["join.purge_yield"] =
      Ratio(static_cast<double>(counters.Get("purged_tuples")),
            static_cast<double>(counters.Get("purge_scanned")));

  // Spine: per-join busy time is the time inside its outermost join spans.
  double max_busy = 0;
  double min_share = 1.0;
  double max_share = 0.0;
  double share_sum = 0.0;
  int64_t max_tuples = 0;
  int64_t max_results = 0;
  for (int s = 0; s < joins; ++s) {
    const SpanRecorder& rec = *probes[s]->recorder;
    double busy = 0;
    for (const Layer l : {Layer::kJoinTuple, Layer::kJoinPunct,
                          Layer::kJoinStall, Layer::kJoinFinish}) {
      busy += static_cast<double>(rec.total_ns(l)) / 1e9;
    }
    ShardLine line;
    line.busy_s = busy;
    line.idle_s = r.wall_s - busy;
    line.tuples = probes[s]->tuples;
    line.results = pipeline != nullptr ? pipeline->shard_stats()[s].results
                                       : sink.oracle().count;
    r.shards.push_back(line);
    max_busy = std::max(max_busy, busy);
    const double share = busy / r.wall_s;
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
    share_sum += share;
    max_tuples = std::max(max_tuples, line.tuples);
    max_results = std::max(max_results, line.results);
  }
  m["ops.critical_idle_s"] = r.wall_s - max_busy;
  m["ops.shard_busy_share.max"] = max_share;
  m["ops.shard_busy_share.min"] = min_share;
  m["ops.router_backpressure_waits"] =
      pipeline ? static_cast<double>(pipeline->router_backpressure_waits())
               : 0.0;
  m["ops.shard_spin_parks"] =
      pipeline ? static_cast<double>(pipeline->shard_spin_parks()) : 0.0;
  m["ops.stalls_reported"] =
      pipeline ? static_cast<double>(pipeline->stalls_reported()) : 0.0;
  m["ops.release_lag_p50_ms"] = r.delay_p50_ms;
  m["ops.sink_s"] = total_s(Layer::kSinkResult) + total_s(Layer::kSinkPunct);
  m["ops.bottleneck_share"] =
      Ratio(static_cast<double>(max_results),
            static_cast<double>(sink.oracle().count));
  m["ops.tuple_imbalance"] =
      Ratio(static_cast<double>(max_tuples),
            static_cast<double>(tuples) / joins);

  m["repart.handoffs"] =
      pipeline ? static_cast<double>(pipeline->handoffs_started()) : 0.0;
  m["repart.migrations"] =
      pipeline ? static_cast<double>(pipeline->migrations_completed()) : 0.0;
  m["repart.rollbacks"] =
      pipeline ? static_cast<double>(pipeline->migration_rollbacks()) : 0.0;
  m["repart.hot_keys"] =
      pipeline ? static_cast<double>(pipeline->hot_keys_active()) : 0.0;

  pjoin::IoStats io;
  int64_t bytes_spilled = 0;
  int64_t bytes_early_purged = 0;
  for (int s = 0; s < joins; ++s) {
    for (const TimedSpillStore* store : probes[s]->stores) {
      io.pages_written += store->io_stats().pages_written;
      io.pages_read += store->io_stats().pages_read;
      io.records_written += store->io_stats().records_written;
      io.records_read += store->io_stats().records_read;
    }
    bytes_spilled += join_ptrs[s]->spill_stats().bytes_spilled;
    bytes_early_purged += join_ptrs[s]->spill_stats().bytes_early_purged;
  }
  m["storage.append_s"] = total_s(Layer::kStorageAppend);
  m["storage.read_s"] = total_s(Layer::kStorageRead);
  m["storage.pages_written"] = static_cast<double>(io.pages_written);
  m["storage.pages_read"] = static_cast<double>(io.pages_read);
  m["storage.reread_ratio"] =
      Ratio(static_cast<double>(io.records_read),
            static_cast<double>(io.records_written));
  m["spill.bytes_spilled"] = static_cast<double>(bytes_spilled);
  m["spill.bytes_early_purged"] = static_cast<double>(bytes_early_purged);
  m["spill.early_purge_share"] =
      Ratio(static_cast<double>(bytes_early_purged),
            static_cast<double>(bytes_spilled + bytes_early_purged));

  m["self.run_s"] = self_by_module["run"];
  m["self.join_s"] = self_by_module["join"];
  m["self.storage_s"] = self_by_module["storage"];
  m["self.sink_s"] = self_by_module["sink"];
  // Share of the join threads' wall time that the join and sink spans
  // cover. Single-threaded: everything under the driver's run span except
  // the driver's own loop. Sharded: the mean shard busy share.
  m["bench.breakdown_coverage"] =
      w.shards > 0
          ? share_sum / joins
          : Ratio(static_cast<double>(caller.total_ns(Layer::kRun) -
                                      caller.self_ns(Layer::kRun)),
                  static_cast<double>(caller.total_ns(Layer::kRun)));

  if (traced && !b->chrome_path.empty() && !b->chrome_written) {
    const Status ws = WriteChromeTrace(b->chrome_path, recorders, t0);
    if (!ws.ok()) std::fprintf(stderr, "%s\n", ws.ToString().c_str());
    b->chrome_written = true;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Metrics and reporting
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"tuples_per_s", "1/s"},         {"peak_state_tuples", "count"},
    {"peak_rss_mb", "MB"},           {"punct_delay_p50_ms", "ms"},
    {"punct_delay_p99_ms", "ms"},    {"setup_s", "s"},
    {"ok_share", "share"},
};

const MetricDef kPerLayer[] = {
    {"join.tuple_s", "s"},
    {"join.punct_s", "s"},
    {"join.finish_s", "s"},
    {"join.stall_s", "s"},
    {"join.tuples", "count"},
    {"join.results", "count"},
    {"join.puncts_in", "count"},
    {"join.puncts_out", "count"},
    {"join.otf_drops", "count"},
    {"join.propagation_runs", "count"},
    {"join.probe_hit_ratio", "ratio"},
    {"join.purge_yield", "ratio"},
    {"ops.critical_idle_s", "s"},
    {"ops.shard_busy_share.max", "share"},
    {"ops.shard_busy_share.min", "share"},
    {"ops.router_backpressure_waits", "count"},
    {"ops.shard_spin_parks", "count"},
    {"ops.stalls_reported", "count"},
    {"ops.release_lag_p50_ms", "ms"},
    {"ops.sink_s", "s"},
    {"ops.bottleneck_share", "share"},
    {"ops.tuple_imbalance", "ratio"},
    {"repart.handoffs", "count"},
    {"repart.migrations", "count"},
    {"repart.rollbacks", "count"},
    {"repart.hot_keys", "count"},
    {"storage.append_s", "s"},
    {"storage.read_s", "s"},
    {"storage.pages_written", "count"},
    {"storage.pages_read", "count"},
    {"storage.reread_ratio", "ratio"},
    {"spill.bytes_spilled", "bytes"},
    {"spill.bytes_early_purged", "bytes"},
    {"spill.early_purge_share", "share"},
    {"self.run_s", "s"},
    {"self.join_s", "s"},
    {"self.storage_s", "s"},
    {"self.sink_s", "s"},
    {"bench.breakdown_coverage", "share"},
    {"bench.trace_overhead", "share"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

struct Cli {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string out;
  std::string chrome;
  std::string git_sha = "unknown";
};

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      cli->selftest = true;
    } else if (!has_value) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    } else if (arg == "--workload") {
      cli->workload = argv[++i];
    } else if (arg == "--seed") {
      cli->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cli->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      cli->trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--out") {
      cli->out = argv[++i];
    } else if (arg == "--chrome") {
      cli->chrome = argv[++i];
    } else if (arg == "--git_sha") {
      cli->git_sha = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Generates the inputs and times set-up: stream generation plus operator
/// construction, repeated until this set's share of a second of set-up has
/// passed (at least one round, at most 15). Cheap set-ups get many rounds
/// while a costly one (skew's zipf generation takes seconds) runs once per
/// input set; the run takes the median over the rounds of all its sets.
/// Then computes what every repetition is checked against, outside set-up
/// and every timed region.
std::unique_ptr<Bench> Prepare(const Workload& w, uint64_t seed) {
  auto b = std::make_unique<Bench>();
  b->w = w;
  std::vector<double>& rounds = b->setup_rounds_s;
  const double budget_s = 1.0 / w.input_sets;
  double total_s = 0;
  for (int round = 0; round < 15 && (round < 1 || total_s < budget_s);
       ++round) {
    const int64_t t0 = NowNs();
    GeneratedStreams s = Generate(w, seed);
    if (w.shards > 0) {
      pjoin::ParallelJoinPipeline pipeline(
          [&](int) -> std::unique_ptr<JoinOperator> {
            return std::make_unique<pjoin::PJoin>(
                s.schema_a, s.schema_b, MakeJoinOptions(w, true));
          },
          MakePipelineOptions(w));
      rounds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    } else {
      pjoin::PJoin join(s.schema_a, s.schema_b, MakeJoinOptions(w, true));
      rounds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    total_s += rounds.back();
    b->streams = std::move(s);
  }
  b->input_tuples =
      b->streams.NumTuples(b->streams.a) + b->streams.NumTuples(b->streams.b);
  // Results must equal the uncapped reference. Which punctuations are still
  // unreleased at end-of-stream depends on when purges and disk joins ran,
  // so under a memory cap the output-punctuation count is checked against
  // a plain single-threaded run with the same cap.
  b->reference = RunReference(w, b->streams, /*capped=*/false);
  if (w.memcap > 0) {
    b->reference.puncts = RunReference(w, b->streams, /*capped=*/true).puncts;
  }
  const pjoin::PJoin image_maker(b->streams.schema_a, b->streams.schema_b,
                                 MakeJoinOptions(w, false));
  b->clock = std::make_unique<PunctClock>(image_maker, b->streams);
  // Return what set-up and the references freed, so the image every
  // repetition forks from is compact.
  malloc_trim(0);
  return b;
}

std::string Serialize(const RepResult& r, bool chrome_written) {
  std::ostringstream o;
  o << "rep " << r.traced << ' ' << r.ok << ' ' << Num(r.wall_s) << ' '
    << Num(r.tuples_per_s) << ' ' << r.peak_state << ' ' << Num(r.peak_rss_mb)
    << ' ' << r.delay_samples << ' ' << Num(r.delay_p50_ms) << ' '
    << Num(r.delay_p99_ms) << ' ' << chrome_written << '\n';
  for (const ShardLine& l : r.shards) {
    o << "shard " << Num(l.busy_s) << ' ' << Num(l.idle_s) << ' ' << l.tuples
      << ' ' << l.results << '\n';
  }
  o << "delays";
  for (const double d : r.delays_ms) o << ' ' << Num(d);
  o << '\n';
  for (const auto& [name, v] : r.layer) o << "layer " << name << ' ' << Num(v) << '\n';
  for (const auto& [name, l] : r.spans) {
    o << "span " << name << ' ' << l.calls << ' ' << Num(l.total_s) << ' '
      << Num(l.self_s) << '\n';
  }
  o << "error " << r.error << '\n';
  return o.str();
}

bool Deserialize(const std::string& text, RepResult* r, bool* chrome_written) {
  std::istringstream in(text);
  std::string line;
  bool saw_rep = false;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string kind;
    f >> kind;
    if (kind == "rep") {
      f >> r->traced >> r->ok >> r->wall_s >> r->tuples_per_s >>
          r->peak_state >> r->peak_rss_mb >> r->delay_samples >>
          r->delay_p50_ms >> r->delay_p99_ms;
      bool written = false;
      f >> written;
      *chrome_written = *chrome_written || written;
      saw_rep = !f.fail();
    } else if (kind == "shard") {
      ShardLine l;
      f >> l.busy_s >> l.idle_s >> l.tuples >> l.results;
      r->shards.push_back(l);
    } else if (kind == "delays") {
      double d = 0;
      while (f >> d) r->delays_ms.push_back(d);
    } else if (kind == "layer") {
      std::string name;
      double v = 0;
      f >> name >> v;
      r->layer[name] = v;
    } else if (kind == "span") {
      std::string name;
      LayerLine l;
      f >> name >> l.calls >> l.total_s >> l.self_s;
      r->spans[name] = l;
    } else if (kind == "error") {
      r->error = line.size() > 6 ? line.substr(6) : "";
    }
  }
  return saw_rep;
}

/// Runs one repetition in a child process forked for it alone. Every
/// repetition then starts from the same parent image — allocator state
/// included — and the child's resident high-water mark is that run's own.
RepResult RunRepIsolated(Bench* b, bool traced) {
  std::fflush(stdout);
  std::fflush(stderr);
  RepResult failed;
  failed.traced = traced;
  failed.ok = false;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.error = "pipe failed";
    return failed;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    failed.error = "fork failed";
    return failed;
  }
  if (pid == 0) {
    close(fds[0]);
    const RepResult r = RunRep(b, traced);
    const std::string text = Serialize(r, b->chrome_written);
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  RepResult r;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !Deserialize(text, &r, &b->chrome_written)) {
    failed.error = "repetition process ended with status " +
                   std::to_string(status);
    return failed;
  }
  return r;
}

/// Repeats the run until `seconds` have passed (at least `min_reps` times).
/// With `trace`, every second repetition is traced.
std::vector<RepResult> Measure(Bench* b, double seconds, bool trace,
                               int min_reps) {
  std::vector<RepResult> reps;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(reps.size()) < min_reps || NowNs() < deadline) {
    const bool traced = trace && reps.size() % 2 == 1;
    reps.push_back(RunRepIsolated(b, traced));
  }
  return reps;
}

std::vector<double> Collect(const std::vector<RepResult>& reps, bool traced,
                            double (*get)(const RepResult&)) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    if (r.traced == traced) v.push_back(get(r));
  }
  return v;
}

/// End-to-end throughput summarizes the untraced repetitions by their fast
/// quartile (the upper quartile of a rate). Contention from other tenants
/// of a shared host only ever slows a repetition down, and it comes in
/// bursts of seconds that cover a varying share of each run; that moves a
/// median between runs more than the fast quartile. Punctuation delays pool
/// the samples of the faster half (by throughput) of every input set's
/// untraced repetitions, so each set weighs alike and the p99 has enough
/// samples beyond it. State is fixed by each set's inputs: the mean over
/// sets of each set's median. Memory takes the median over repetitions.
std::map<std::string, double> EndToEnd(double setup_s, int sets,
                                       const std::vector<RepResult>& reps,
                                       int64_t failed) {
  std::map<std::string, double> m;
  m["tuples_per_s"] = Quantile(
      Collect(reps, false, [](const RepResult& r) { return r.tuples_per_s; }),
      0.75);
  std::vector<double> delays;
  double state_sum = 0;
  for (int set = 0; set < sets; ++set) {
    std::vector<double> state;
    std::vector<const RepResult*> by_speed;
    for (const RepResult& r : reps) {
      if (r.traced || r.set != set) continue;
      state.push_back(static_cast<double>(r.peak_state));
      by_speed.push_back(&r);
    }
    state_sum += Median(state);
    std::sort(by_speed.begin(), by_speed.end(),
              [](const RepResult* x, const RepResult* y) {
                return x->tuples_per_s > y->tuples_per_s;
              });
    by_speed.resize((by_speed.size() + 1) / 2);
    for (const RepResult* r : by_speed) {
      delays.insert(delays.end(), r->delays_ms.begin(), r->delays_ms.end());
    }
  }
  m["peak_state_tuples"] = state_sum / sets;
  m["peak_rss_mb"] = Median(Collect(
      reps, false, [](const RepResult& r) { return r.peak_rss_mb; }));
  m["punct_delay_p50_ms"] = Quantile(delays, 0.5);
  m["punct_delay_p99_ms"] = Quantile(delays, 0.99);
  m["punct_delay_samples"] = static_cast<double>(delays.size());
  m["setup_s"] = setup_s;
  m["ok_share"] = 1.0 - static_cast<double>(failed) /
                            static_cast<double>(reps.size());
  return m;
}

std::map<std::string, double> PerLayer(const std::vector<RepResult>& reps) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) {
    std::vector<double> v;
    for (const RepResult& r : reps) {
      if (!r.traced) continue;
      const auto it = r.layer.find(def.name);
      if (it != r.layer.end()) v.push_back(it->second);
    }
    m[def.name] = Median(v);
  }
  const double untraced = Quantile(
      Collect(reps, false, [](const RepResult& r) { return r.tuples_per_s; }),
      0.75);
  const double traced = Quantile(
      Collect(reps, true, [](const RepResult& r) { return r.tuples_per_s; }),
      0.75);
  m["bench.trace_overhead"] = Ratio(untraced - traced, untraced);
  return m;
}

void WriteRecord(const Cli& cli, const Bench& b,
                 const std::vector<RepResult>& reps,
                 const std::vector<std::string>& errors,
                 const std::map<std::string, double>& metrics,
                 const MetricDef* defs, size_t num_defs) {
  if (cli.out.empty()) return;
  const Workload& w = b.w;
  std::ostringstream o;
  o << "{\n  \"benchmark\": \"perfbench\",\n";
  o << "  \"workload\": " << JsonString(w.name) << ",\n";
  o << "  \"why\": " << JsonString(w.why) << ",\n";
  o << "  \"seed\": " << cli.seed << ", \"seconds\": " << Num(cli.seconds)
    << ", \"trace\": " << (cli.trace ? 1 : 0) << ",\n";
  o << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << JsonString(CpuModel()) << "},\n";
  o << "  \"build\": {\"type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"pjoin_tracing\": " << JsonString(PERFBENCH_TRACING_FLAG)
    << ", \"git_sha\": " << JsonString(cli.git_sha) << "},\n";
  o << "  \"shape\": {\"driver\": "
    << JsonString(w.shards > 0 ? "ParallelJoinPipeline::Run"
                               : "JoinOperator::OnElement")
    << ", \"shards\": " << w.shards << ", \"tuples_per_stream\": " << w.tuples
    << ", \"window\": " << w.window << ", \"zipf_a\": " << Num(w.zipf_a)
    << ", \"zipf_b\": " << Num(w.zipf_b)
    << ", \"punct_every_tuples\": " << Num(w.punct_every)
    << ", \"flush_at_end\": " << (w.flush_at_end ? "true" : "false")
    << ", \"purge_threshold\": " << w.purge_threshold
    << ", \"indexed_purge\": "
    << (w.purge_mode == pjoin::PurgeMode::kIndexed ? "true" : "false")
    << ", \"propagate_every\": " << w.propagate_every
    << ", \"memcap_tuples\": " << w.memcap
    << ", \"repartition\": " << (w.repartition ? "true" : "false")
    << ", \"ring\": " << w.ring << ", \"input_sets\": " << w.input_sets
    << ", \"input_tuples\": " << b.input_tuples
    << ", \"reference_results\": " << b.reference.oracle.count
    << ", \"reference_puncts_out\": " << b.reference.puncts << "},\n";
  o << "  \"attempted\": " << reps.size() << ", \"failed\": " << errors.size()
    << ",\n  \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    o << (i ? ", " : "") << JsonString(errors[i]);
  }
  o << "],\n";
  const auto samples = metrics.find("punct_delay_samples");
  if (samples != metrics.end()) {
    o << "  \"punct_delay_samples\": " << Num(samples->second) << ",\n";
  }
  o << "  \"metrics\": {";
  for (size_t i = 0; i < num_defs; ++i) {
    o << (i ? ",\n    " : "\n    ") << JsonString(defs[i].name)
      << ": {\"value\": " << Num(metrics.at(defs[i].name))
      << ", \"unit\": " << JsonString(defs[i].unit) << "}";
  }
  o << "\n  },\n  \"reps\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    o << (i ? ",\n    " : "\n    ") << "{\"set\": " << r.set
      << ", \"traced\": " << (r.traced ? "true" : "false") << ", \"ok\": "
      << (r.ok ? "true" : "false") << ", \"wall_s\": " << Num(r.wall_s)
      << ", \"tuples_per_s\": " << Num(r.tuples_per_s)
      << ", \"peak_state_tuples\": " << r.peak_state
      << ", \"peak_rss_mb\": " << Num(r.peak_rss_mb)
      << ", \"punct_delay_samples\": " << r.delay_samples
      << ", \"punct_delay_p50_ms\": " << Num(r.delay_p50_ms)
      << ", \"punct_delay_p99_ms\": " << Num(r.delay_p99_ms)
      << ", \"shards\": [";
    for (size_t s = 0; s < r.shards.size(); ++s) {
      const ShardLine& l = r.shards[s];
      o << (s ? ", " : "") << "{\"busy_s\": " << Num(l.busy_s)
        << ", \"idle_s\": " << Num(l.idle_s) << ", \"tuples\": " << l.tuples
        << ", \"results\": " << l.results << "}";
    }
    o << "]";
    if (r.traced) {
      o << ", \"spans\": {";
      bool first = true;
      for (const auto& [name, line] : r.spans) {
        o << (first ? "" : ", ") << JsonString(name) << ": {\"calls\": "
          << line.calls << ", \"total_s\": " << Num(line.total_s)
          << ", \"self_s\": " << Num(line.self_s) << "}";
        first = false;
      }
      o << "}";
    }
    o << "}";
  }
  o << "\n  ]";
  if (!b.chrome_path.empty() && b.chrome_written) {
    o << ",\n  \"chrome_trace\": " << JsonString(b.chrome_path);
  }
  o << "\n}\n";
  std::ofstream out(cli.out);
  out << o.str();
  if (!out) std::fprintf(stderr, "cannot write %s\n", cli.out.c_str());
}

int RunWorkload(const Cli& cli) {
  bool known = false;
  for (const char* n : kWorkloadNames) known = known || cli.workload == n;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s' (probe, skew, spill)\n",
                 cli.workload.c_str());
    return 2;
  }
  // Several input sets per run, each from its own sub-seed of --seed. The
  // seed decides the inputs' fine structure (where a hot key's bursts fall,
  // how high state peaks), which moves one set's figures far more than
  // measurement noise does; a run summarizes the repetitions of all sets.
  const Workload w = MakeWorkload(cli.workload, 1.0);
  std::unique_ptr<Bench> b;  // the first set; describes the run's record
  std::vector<RepResult> reps;
  std::vector<double> setup_rounds_s;
  for (int set = 0; set < w.input_sets; ++set) {
    std::unique_ptr<Bench> current =
        Prepare(w, cli.seed * static_cast<uint64_t>(w.input_sets) +
                       static_cast<uint64_t>(set));
    if (set == 0) current->chrome_path = cli.chrome;
    std::vector<RepResult> more =
        Measure(current.get(), cli.seconds / w.input_sets, cli.trace, 2);
    for (RepResult& r : more) r.set = set;
    reps.insert(reps.end(), more.begin(), more.end());
    setup_rounds_s.insert(setup_rounds_s.end(),
                          current->setup_rounds_s.begin(),
                          current->setup_rounds_s.end());
    // Free this set's inputs before the next set forks its repetitions.
    current->streams = GeneratedStreams();
    current->clock.reset();
    malloc_trim(0);
    if (set == 0) b = std::move(current);
  }

  std::vector<std::string> errors;
  for (size_t i = 0; i < reps.size(); ++i) {
    if (!reps[i].ok) {
      errors.push_back("rep " + std::to_string(i) + ": " + reps[i].error);
    }
  }
  const int64_t failed = static_cast<int64_t>(errors.size());
  const MetricDef* defs = cli.trace ? kPerLayer : kEndToEnd;
  const size_t num_defs = cli.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  const std::map<std::string, double> metrics =
      cli.trace ? PerLayer(reps)
                : EndToEnd(Median(setup_rounds_s), w.input_sets, reps, failed);
  WriteRecord(cli, *b, reps, errors, metrics, defs, num_defs);

  std::printf("perfbench %s seed=%llu trace=%d: %zu reps, %lld failed\n",
              b->w.name.c_str(), static_cast<unsigned long long>(cli.seed),
              cli.trace ? 1 : 0, reps.size(), static_cast<long long>(failed));
  for (const std::string& e : errors) std::printf("  FAIL %s\n", e.c_str());
  for (size_t i = 0; i < num_defs; ++i) {
    std::printf("  %-32s %16.6g %s\n", defs[i].name,
                metrics.at(defs[i].name), defs[i].unit);
  }
  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << reps.size() << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < num_defs; ++i) {
    line << (i ? ", " : "") << JsonString(defs[i].name)
         << ": {\"value\": " << Num(metrics.at(defs[i].name))
         << ", \"unit\": " << JsonString(defs[i].unit) << "}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}

/// Determinism self-test: at a small size, the counts a seed fixes must
/// repeat exactly across two independent preparations and runs.
int SelfTest(uint64_t seed) {
  bool all_ok = true;
  for (const char* name : kWorkloadNames) {
    // A quarter of the size; skew needs half to land a few handoffs.
    const Workload w =
        MakeWorkload(name, std::string(name) == "skew" ? 0.5 : 0.25);
    std::vector<std::string> fixed[2];
    bool ok = true;
    for (int round = 0; round < 2; ++round) {
      std::unique_ptr<Bench> b = Prepare(w, seed);
      const RepResult r = RunRep(b.get(), /*traced=*/round == 1);
      if (!r.ok) {
        std::printf("  %s round %d: %s\n", name, round, r.error.c_str());
        ok = false;
      }
      std::vector<std::string>& f = fixed[round];
      f.push_back("join.results=" + Num(r.layer.at("join.results")));
      f.push_back("join.puncts_out=" + Num(r.layer.at("join.puncts_out")));
      if (!w.repartition) {
        // Under repartitioning, sprayed hot-key tuples go to whichever
        // shard has merged the least output so far: a timing decision.
        for (size_t s = 0; s < r.shards.size(); ++s) {
          f.push_back("shard" + std::to_string(s) +
                      ".join.tuples=" + std::to_string(r.shards[s].tuples));
        }
      }
      if (w.memcap > 0) {
        f.push_back("storage.pages_written=" +
                    Num(r.layer.at("storage.pages_written")));
      }
      if (w.repartition) {
        f.push_back("repart.handoffs=" + Num(r.layer.at("repart.handoffs")));
      }
    }
    ok = ok && fixed[0] == fixed[1];
    std::printf("%s determinism %s:", ok ? "PASS" : "FAIL", name);
    for (size_t i = 0; i < fixed[0].size(); ++i) {
      std::printf(" %s", fixed[0][i].c_str());
      if (i < fixed[1].size() && fixed[1][i] != fixed[0][i]) {
        std::printf(" (then %s)", fixed[1][i].c_str());
      }
    }
    std::printf("\n");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Cli cli;
  if (!perfbench::ParseCli(argc, argv, &cli)) return 2;
  if (cli.selftest) return perfbench::SelfTest(cli.seed);
  return perfbench::RunWorkload(cli);
}

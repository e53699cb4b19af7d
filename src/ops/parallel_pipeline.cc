#include "ops/parallel_pipeline.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>

#include "obs/trace.h"
#include "stream/arrival_merge.h"

namespace pjoin {

namespace {

// A shard flushes its staged results into its output ring after this many
// (releases always flush with the batch they end).
constexpr size_t kResultFlush = 256;

// A dry shard reports a stall to its join (disk join / reactive stage) after
// this many consecutive empty polls, then parks until data or close.
constexpr int kStallPolls = 4;

// Capacity of each shard→merger output ring in OutBatches; a shard parks on
// a full ring until the merger drains it.
constexpr size_t kOutRingBatches = 64;

// Ring capacities are configured in elements but the rings carry batches;
// 0 means "effectively unbounded" (a large default).
size_t RingBatches(size_t capacity_elements, size_t batch_size) {
  if (capacity_elements == 0) capacity_elements = 65536;
  const size_t batches = capacity_elements / batch_size;
  return batches < 2 ? 2 : batches;
}

}  // namespace

struct ParallelJoinPipeline::Shard {
  Shard(int id_in, size_t queue_batches)
      : id(id_in), queue(queue_batches), out(kOutRingBatches) {}

  const int id;
  JoinOperator* join = nullptr;
  /// Router → worker: routed batches (router is the sole producer, the
  /// worker the sole consumer).
  SpscRing<RoutedBatch> queue;
  /// Worker → merger: result/release batches (worker produces, the
  /// router/caller thread consumes).
  SpscRing<OutBatch> out;
  /// Router dispatch time (RoutedBatch::ingress_us) of the batch the worker
  /// is on, 0 while its ring is empty (pjoin_shard_dispatch_us): the stall
  /// diagnosis reads the shard's lag behind the router as now minus this.
  obs::Gauge dispatch_gauge;
  /// Live ring occupancies in batches (pjoin_ring_occupancy).
  obs::Gauge queue_occupancy_gauge;
  obs::Gauge out_occupancy_gauge;
  /// Times the worker entered the spin-then-park slow path on an empty
  /// routed ring (worker-local; also counter pjoin_shard_spin_parks).
  int64_t spin_parks = 0;
  obs::Counter spin_parks_counter;
  /// Worker-local staging, moved into `out` as one OutBatch: result rows
  /// as flat values (OutBatch::rows), then releases. Results always precede
  /// the releases recorded after them (the §3.3 ordering).
  std::vector<Value> local_rows;
  std::vector<Punctuation> local_releases;
  ShardStats stats;
  Status status;
};

ParallelJoinPipeline::ParallelJoinPipeline(JoinFactory factory,
                                           ParallelPipelineOptions options)
    : options_(options), release_board_(options.num_shards) {
  PJOIN_DCHECK(factory != nullptr);
  PJOIN_DCHECK(options_.num_shards > 0);
  PJOIN_DCHECK(options_.batch_size > 0);
  const size_t queue_batches =
      RingBatches(options_.shard_queue_capacity, options_.batch_size);
  joins_.reserve(static_cast<size_t>(options_.num_shards));
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  staged_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    joins_.push_back(factory(s));
    PJOIN_DCHECK(joins_.back() != nullptr);
    auto shard = std::make_unique<Shard>(s, queue_batches);
    shard->join = joins_.back().get();
    shard->stats.shard = s;
    shards_.push_back(std::move(shard));
  }
  result_schema_ = joins_[0]->output_schema();
  row_width_ = result_schema_->num_fields();
}

ParallelJoinPipeline::~ParallelJoinPipeline() = default;

void ParallelJoinPipeline::FlushShardOut(Shard* shard, bool force) {
  if (shard->local_rows.empty() && shard->local_releases.empty()) return;
  // Releases always flush promptly (the merger's board is waiting on them);
  // bare results batch up to kResultFlush.
  if (!force && shard->local_releases.empty() &&
      shard->local_rows.size() < kResultFlush * row_width_) {
    return;
  }
  OutBatch out;
  out.rows = std::move(shard->local_rows);
  out.releases = std::move(shard->local_releases);
  shard->local_rows.clear();
  shard->local_releases.clear();
  // The moved-from vector restarts at zero capacity; reserving the flush
  // threshold up front spares the next batch the doubling re-allocations.
  shard->local_rows.reserve(kResultFlush * row_width_);
  // Safe to park here: the merger (router/caller thread) drains these rings
  // whenever it waits on anything.
  shard->out.PushBlocking(std::move(out));
  // Wake a merger parked on the activity eventcount (push first, then bump:
  // a merger that re-drained after loading the count cannot miss the batch).
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::MergeOutBatch(int shard, OutBatch out) {
  TRACE_SPAN("par", "merge_drain");
  // Each result's Tuple is built here, so its block is allocated and freed
  // by this thread; the values move out of the row.
  const size_t results = out.rows.size() / row_width_;
  results_emitted_ += static_cast<int64_t>(results);
  if (on_result_) {
    auto row = std::make_move_iterator(out.rows.begin());
    for (size_t r = 0; r < results; ++r, row += row_width_) {
      on_result_(
          Tuple(result_schema_, std::vector<Value>(row, row + row_width_)));
    }
  }
  for (Punctuation& p : out.releases) {
    TRACE_INSTANT("par", "punct_release");
    // One emission per round this release completed (ops/release_board.h).
    for (int n = release_board_.Release(p, shard); n > 0; --n) {
      ++puncts_emitted_;
      if (on_punct_) on_punct_(p);
    }
  }
  if (!out.releases.empty()) {
    punct_pending_gauge_.Set(release_board_.pending_rounds());
  }
}

size_t ParallelJoinPipeline::DrainOutputs() {
  size_t merged = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    OutBatch out;
    while (shards_[i]->out.TryPop(&out)) {
      MergeOutBatch(static_cast<int>(i), std::move(out));
      ++merged;
    }
  }
  return merged;
}

void ParallelJoinPipeline::Stage(int shard, int8_t side,
                                 const StreamElement* e, uint64_t key_hash,
                                 TimeMicros ingress_us) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) pending.ingress_us = ingress_us;
  pending.elements.push_back(e);
  pending.sides.push_back(side);
  pending.key_hashes.push_back(key_hash);
  if (pending.elements.size() >= options_.batch_size) FlushStaged(shard);
}

void ParallelJoinPipeline::FlushStaged(int shard) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) return;
  RoutedBatch batch = std::move(pending);
  pending = RoutedBatch{};
  pending.elements.reserve(options_.batch_size);
  pending.sides.reserve(options_.batch_size);
  pending.key_hashes.reserve(options_.batch_size);
  PushRouted(shard, std::move(batch));
}

void ParallelJoinPipeline::PushRouted(int shard, RoutedBatch batch) {
  SpscRing<RoutedBatch>& queue = shards_[static_cast<size_t>(shard)]->queue;
  if (queue.TryPush(std::move(batch))) return;
  // Full shard ring. The router must NOT park indefinitely (it is also the
  // merger): drain the output rings — which is usually exactly what
  // unblocks the slow shard — and retry. When a retry round makes no merge
  // progress either, nap briefly instead of yield-spinning: the shard owns
  // a full ring of work, so on few-core hosts giving the core away beats
  // burning it, and the nap bounds added latency to microseconds. TryPush
  // leaves `batch` intact on failure.
  ++router_backpressure_waits_;
  backpressure_counter_.Add(1);
  while (true) {
    const size_t merged = DrainOutputs();
    if (queue.TryPush(std::move(batch))) return;
    if (merged == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      std::this_thread::yield();
    }
  }
}

void ParallelJoinPipeline::ShardLoop(Shard* shard) {
  TRACE_SET_THREAD_NAME("shard-" + std::to_string(shard->id));
  JoinOperator* join = shard->join;
  RoutedBatch batch;
  int64_t dry = 0;
  bool failed = false;
  while (true) {
    if (!shard->queue.TryPop(&batch)) {
      // Nothing routed is waiting, so nothing lags (this also clears the
      // gauge on exit, after a failure too).
      shard->dispatch_gauge.Set(0);
      if (shard->queue.exhausted()) break;
      if (++dry < kStallPolls) {
        std::this_thread::yield();
        continue;
      }
      dry = 0;
      // This shard is dry: use the lull for background work (PJoin's disk
      // join, XJoin's reactive stage) on shard-local state, then park until
      // the router pushes or closes.
      if (!failed) {
        ++shard->stats.stalls;
        // Emissions out of the stall work (disk-join results, deferred
        // propagation) attribute latency to the stall start.
        join->set_element_ingress_micros(obs::TraceNowMicros());
        const Status st = join->OnStreamsStalled();
        join->ObserveResultLatency();
        if (!st.ok()) {
          shard->status = st;
          failed = true;
        }
        join->PublishStateGauges();
        FlushShardOut(shard, /*force=*/true);
      }
      ++shard->spin_parks;
      shard->spin_parks_counter.Add(1);
      shard->queue.WaitForData();
      continue;
    }
    dry = 0;
    shard->dispatch_gauge.Set(batch.ingress_us);
    if (!failed) {
      TRACE_SPAN("par", "shard_batch");
      join->set_element_ingress_micros(batch.ingress_us);
      const Status st = join->ProcessBatch(
          ElementBatch{batch.elements.data(), batch.sides.data(),
                       batch.key_hashes.data(), batch.elements.size()});
      if (!st.ok()) {
        shard->status = st;
        // Keep draining (and discarding) so the router never wedges on
        // this shard's ring; the error is surfaced after the run.
        failed = true;
      }
    }
    // Once-per-batch live publication: ring occupancies and the join's
    // state gauges (the worker owns the join, so the HashState reads are
    // safe).
    shard->queue_occupancy_gauge.Set(
        static_cast<int64_t>(shard->queue.size()));
    join->PublishStateGauges();
    FlushShardOut(shard, /*force=*/false);
    shard->out_occupancy_gauge.Set(static_cast<int64_t>(shard->out.size()));
  }
  shard->queue_occupancy_gauge.Set(0);
  join->PublishStateGauges();
  FlushShardOut(shard, /*force=*/true);
  shard->out_occupancy_gauge.Set(0);
  shard->out.Close();
  workers_done_.fetch_add(1);
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::RouteElement(int side, const StreamElement* e) {
  switch (e->kind()) {
    case ElementKind::kTuple: {
      // The single hash of this tuple's key for the whole pipeline: shard
      // selection here, partition selection / index probe / index insert
      // in the shard (via RoutedBatch::key_hashes).
      const uint64_t h =
          e->tuple().field(key_index_[side]).Hash();
      Stage(OwnerOf(h, num_shards()), static_cast<int8_t>(side), e, h,
            route_now_us_);
      break;
    }
    case ElementKind::kPunctuation: {
      // A constant-key punctuation concerns exactly the shard that can hold
      // the key's state, its owner. Non-constant patterns (range flush
      // markers, wildcards) can cover keys of every shard and broadcast.
      // Staged order keeps the punctuation behind every tuple dispatched
      // before it, per shard.
      const Pattern& key_pattern = e->punctuation().pattern(key_index_[side]);
      int target = -1;  // every shard
      if (key_pattern.IsConstant()) {
        target = OwnerOf(key_pattern.constant().Hash(), num_shards());
      }
      // The round is on the board before its first Stage: a Stage that
      // finds a full ring drains the output rings, which may already carry
      // a release of this round from a shard staged earlier in the loop.
      release_board_.NoteDispatch(
          joins_[0]->MakeOutputPunct(side, e->punctuation()), target);
      const int first = target < 0 ? 0 : target;
      const int last = target < 0 ? num_shards() : target + 1;
      for (int s = first; s < last; ++s) {
        Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0, route_now_us_);
      }
      break;
    }
    case ElementKind::kEndOfStream: {
      for (int s = 0; s < num_shards(); ++s) {
        Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0, route_now_us_);
      }
      break;
    }
  }
}

void ParallelJoinPipeline::RouterLoop(const std::vector<StreamElement>& left,
                                      const std::vector<StreamElement>& right) {
  TRACE_SET_THREAD_NAME("router");
  TRACE_SPAN("par", "router");
  key_index_[0] = joins_[0]->state(0).key_index();
  key_index_[1] = joins_[0]->state(1).key_index();
  int64_t since_drain = 0;
  // Ingress timestamps for latency attribution, refreshed every few
  // dispatches so the clock read amortizes off the routing hot path. The
  // resulting quantization (a handful of router iterations) is far below
  // the queueing delays the histograms exist to expose.
  route_now_us_ = obs::TraceNowMicros();
  int now_refresh = 0;

  for (ArrivalMerge merge(left, right); !merge.done();) {
    const auto [side, e] = merge.Next();
    if (now_refresh-- <= 0) {
      route_now_us_ = obs::TraceNowMicros();
      now_refresh = 63;
    }
    RouteElement(side, e);
    if (++since_drain >= static_cast<int64_t>(options_.batch_size)) {
      since_drain = 0;
      DrainOutputs();
    }
  }
  for (int s = 0; s < num_shards(); ++s) {
    FlushStaged(s);
    shards_[static_cast<size_t>(s)]->queue.Close();
  }
}

Status ParallelJoinPipeline::Run(const std::vector<StreamElement>& left,
                                 const std::vector<StreamElement>& right) {
  PJOIN_DCHECK(!ran_);
  ran_ = true;
  // The shards finish on end-of-stream, so an input without one would keep
  // them waiting forever; elements after it would never be joined.
  for (const std::vector<StreamElement>* input : {&left, &right}) {
    const auto eos = std::find_if(
        input->begin(), input->end(),
        [](const StreamElement& e) { return e.is_end_of_stream(); });
    if (eos == input->end() || eos + 1 != input->end()) {
      return Status::InvalidArgument(
          "each input must end with its only end-of-stream marker");
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  backpressure_counter_ = registry.GetCounter("pjoin_router_backpressure_waits",
                                              "pipeline=parallel");
  punct_pending_gauge_ =
      registry.GetGauge("pjoin_punct_pending_rounds", "pipeline=parallel");
  // Wire per-shard output staging: results queue up locally as flat rows; a
  // punctuation release is recorded behind them, and FlushShardOut moves
  // both into the shard's output ring with that order intact — so by the
  // time the merger counts the last shard's release, every covered result
  // has already been emitted ahead of it.
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->local_rows.reserve(kResultFlush * row_width_);
    shard->join->set_pair_callback([shard](const Tuple& left,
                                           const Tuple& right) {
      std::vector<Value>& rows = shard->local_rows;
      rows.insert(rows.end(), left.values().begin(), left.values().end());
      rows.insert(rows.end(), right.values().begin(), right.values().end());
    });
    shard->join->set_punct_callback([shard](const Punctuation& p) {
      shard->local_releases.push_back(p);
    });
    const std::string labels =
        "pipeline=parallel,shard=" + std::to_string(shard->id);
    shard->join->BindLatencyMetrics(labels);
    shard->join->BindStateGauges(labels);
    shard->dispatch_gauge =
        registry.GetGauge("pjoin_shard_dispatch_us", labels);
    shard->queue_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=shard_" + std::to_string(shard->id));
    shard->out_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=out_" + std::to_string(shard->id));
    shard->spin_parks_counter =
        registry.GetCounter("pjoin_shard_spin_parks", labels);
  }

  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  for (auto& shard : shards_) {
    workers.emplace_back(&ParallelJoinPipeline::ShardLoop, this, shard.get());
  }

  RouterLoop(left, right);

  // Keep merging while the workers finish their tails (a worker could
  // otherwise park forever on a full output ring) — parked on the activity
  // eventcount between drains so this thread's cycles go to the workers.
  while (true) {
    const uint32_t seq = out_activity_.load();
    const bool done = workers_done_.load() >= num_shards();
    if (DrainOutputs() == 0) {
      if (done) break;
      out_activity_.wait(seq);
    }
  }
  for (std::thread& w : workers) w.join();
  DrainOutputs();

  Status status;
  shard_stats_.clear();
  for (auto& shard : shards_) {
    const JoinOperator& join = *shard->join;
    shard->stats.tuples = join.counters().Get("tuples_in");
    shard->stats.results = join.results_emitted();
    shard->stats.puncts_emitted = join.puncts_emitted();
    shard->stats.state_tuples = join.total_state_tuples();
    stalls_reported_ += shard->stats.stalls;
    shard_spin_parks_ += shard->spin_parks;
    shard_stats_.push_back(shard->stats);
    if (status.ok() && !shard->status.ok()) status = shard->status;
  }
  return status;
}

}  // namespace pjoin

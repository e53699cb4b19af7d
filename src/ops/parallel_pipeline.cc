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

// Ring capacities are configured in elements but the rings carry batches;
// 0 means "effectively unbounded" (a large default).
size_t RingBatches(size_t capacity_elements, size_t batch_size) {
  if (capacity_elements == 0) capacity_elements = 65536;
  const size_t batches = capacity_elements / batch_size;
  return batches < 2 ? 2 : batches;
}

}  // namespace

struct ParallelJoinPipeline::Shard {
  Shard(int id_in, size_t queue_batches, size_t out_batches)
      : id(id_in), queue(queue_batches), out(out_batches) {}

  const int id;
  JoinOperator* join = nullptr;
  /// Flow id of the newest sampled RoutedBatch processed and not yet
  /// flushed (worker-local; travels out with the next OutBatch).
  uint64_t pending_flow_id = 0;
  /// Router → worker: routed batches (router is the sole producer, the
  /// worker the sole consumer).
  SpscRing<RoutedBatch> queue;
  /// Worker → merger: result/release batches (worker produces, the
  /// router/caller thread consumes).
  SpscRing<OutBatch> out;
  /// Elements the worker has fully processed (with `enqueued`, the live
  /// backlog; worker-local).
  int64_t processed = 0;
  /// Elements the router has pushed (written by the router, read by the
  /// worker).
  std::atomic<int64_t> enqueued{0};
  /// Live routed-element backlog (enqueued - processed), published by the
  /// worker once per batch.
  obs::Gauge depth_gauge;
  /// Router dispatch time (RoutedBatch::ingress_us) of the batch the worker
  /// is on, 0 while its ring is empty (pjoin_shard_dispatch_us): the stall
  /// diagnosis reads the shard's lag behind the router as now minus this.
  obs::Gauge dispatch_gauge;
  /// Live ring occupancies in batches (pjoin_ring_occupancy).
  obs::Gauge queue_occupancy_gauge;
  obs::Gauge out_occupancy_gauge;
  /// Times the worker entered the spin-then-park slow path on an empty
  /// routed ring (pjoin_shard_spin_parks).
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
    auto shard = std::make_unique<Shard>(
        s, queue_batches, std::max<size_t>(2, options_.out_ring_batches));
    shard->join = joins_.back().get();
    shard->stats.shard = s;
    shards_.push_back(std::move(shard));
  }
  result_schema_ = joins_[0]->output_schema();
  row_width_ = result_schema_->num_fields();
  // Key placement lives in one map consulted by tuple AND punctuation
  // routing; the repartition controller mutates it through handoffs.
  shard_map_.Reset(options_.num_shards);
  repart_enabled_ = options_.repartition.enabled && options_.num_shards > 1;
  if (repart_enabled_) {
    controller_ = std::make_unique<RepartitionController>(
        options_.repartition, &shard_map_);
  }
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
  out.flow_id = shard->pending_flow_id;
  shard->pending_flow_id = 0;
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
  if (out.flow_id != 0) TRACE_FLOW_END("flow", "tuple_path", out.flow_id);
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
  if (out.handoff != nullptr) {
    // The owner's extract answer; Replicate is waiting for it.
    PJOIN_DCHECK(handoff_answer_ == nullptr);
    handoff_answer_ = std::move(out.handoff);
  }
}

size_t ParallelJoinPipeline::DrainOutputs() {
  size_t merged = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    OutBatch out;
    while (shards_[i]->out.TryPop(&out)) {
      if (repart_enabled_) {
        merged_results_[i] +=
            static_cast<int64_t>(out.rows.size() / row_width_);
      }
      MergeOutBatch(static_cast<int>(i), std::move(out));
      ++merged;
    }
  }
  return merged;
}

int ParallelJoinPipeline::SprayTarget(uint64_t key_hash) {
  // Greedy least-output spray: send the sprayed tuple to the shard that
  // has merged the least join output so far. Result production — not
  // tuple count — is the work a hot key concentrates, and a blind
  // round-robin feeds a quarter of the hot key's output to the shard
  // that is already the bottleneck. The merger runs on this thread, so
  // the counts are fresh to within one drain. Until output differentiates
  // the shards, fall back to the key's round-robin cursor.
  int best = 0;
  bool all_equal = true;
  for (int s = 1; s < num_shards(); ++s) {
    const size_t i = static_cast<size_t>(s);
    if (merged_results_[i] != merged_results_[static_cast<size_t>(best)]) {
      all_equal = false;
    }
    if (merged_results_[i] < merged_results_[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  if (all_equal) return shard_map_.NextSprayShard(key_hash);
  return best;
}

void ParallelJoinPipeline::Stage(int shard, int8_t side,
                                 const StreamElement* e, uint64_t key_hash,
                                 TimeMicros ingress_us, uint64_t flow_id) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) pending.ingress_us = ingress_us;
  // Stamp before the flush check below so a sampled tuple that fills the
  // batch still travels with it.
  if (flow_id != 0) pending.flow_id = flow_id;
  pending.elements.push_back(e);
  pending.sides.push_back(side);
  pending.key_hashes.push_back(key_hash);
  if (e->is_tuple()) ++pending.tuple_count;
  if (pending.elements.size() >= options_.batch_size) FlushStaged(shard);
}

void ParallelJoinPipeline::FlushStaged(int shard) {
  RoutedBatch& pending = staged_[static_cast<size_t>(shard)];
  if (pending.elements.empty()) return;
  Shard& s = *shards_[static_cast<size_t>(shard)];
  s.enqueued.fetch_add(static_cast<int64_t>(pending.elements.size()));
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
      if (++dry < options_.stall_polls) {
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
      shard->spin_parks_counter.Add(1);
      shard_spin_parks_.fetch_add(1);
      shard->queue.WaitForData();
      continue;
    }
    dry = 0;
    shard->dispatch_gauge.Set(batch.ingress_us);
    if (batch.command != nullptr) {
      ExecuteCommand(shard, *batch.command);
      batch.command.reset();
      continue;
    }
    const size_t n = batch.elements.size();
    if (batch.flow_id != 0) {
      TRACE_FLOW_STEP("flow", "tuple_path", batch.flow_id);
      shard->pending_flow_id = batch.flow_id;
    }
    {
      TRACE_SPAN("par", "shard_batch");
      if (!failed) {
        shard->stats.elements += static_cast<int64_t>(n);
        shard->stats.tuples += batch.tuple_count;
        join->set_element_ingress_micros(batch.ingress_us);
        const Status st = join->ProcessBatch(
            ElementBatch{batch.elements.data(), batch.sides.data(),
                         batch.key_hashes.data(), n});
        if (!st.ok()) {
          shard->status = st;
          // Keep draining (and discarding) so the router never wedges on
          // this shard's ring; the error is surfaced after the run.
          failed = true;
        }
      }
      shard->processed += static_cast<int64_t>(n);
    }
    // Once-per-batch live publication: backlog, ring occupancies, and the
    // join's state gauges (the worker owns the join, so the HashState reads
    // are safe).
    shard->depth_gauge.Set(shard->enqueued.load() - shard->processed);
    shard->queue_occupancy_gauge.Set(
        static_cast<int64_t>(shard->queue.size()));
    join->PublishStateGauges();
    FlushShardOut(shard, /*force=*/false);
    shard->out_occupancy_gauge.Set(static_cast<int64_t>(shard->out.size()));
  }
  shard->depth_gauge.Set(0);
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
      // Causal flow sampling: every flow_sample_period-th routed tuple is
      // stamped with its ordinal as flow id and traced router→shard→merger
      // as Chrome flow arrows. Deterministic for a fixed input order.
      ++routed_tuples_;
      uint64_t fid = 0;
      if (options_.flow_sample_period != 0 &&
          static_cast<uint64_t>(routed_tuples_) %
                  options_.flow_sample_period ==
              1 % options_.flow_sample_period) {
        fid = static_cast<uint64_t>(routed_tuples_);
        TRACE_FLOW_START("flow", "tuple_path", fid);
      }
      if (!repart_enabled_) {
        Stage(shard_map_.OwnerOf(h), static_cast<int8_t>(side), e, h,
              route_now_us_, fid);
        break;
      }
      if (shard_map_.IsReplicated(h)) {
        // Hot key: the sprayed side round-robins (each tuple probes the
        // build side's full local replica), the build side broadcasts
        // (each tuple probes the local spray-state and refreshes every
        // replica). Every result pair meets at exactly one shard.
        if (side == shard_map_.SpraySideOf(h)) {
          const int s = SprayTarget(h);
          Stage(s, static_cast<int8_t>(side), e, h, route_now_us_, fid);
          controller_->ObserveTuple(e->tuple().field(key_index_[side]), h,
                                    side, s);
        } else {
          for (int s = 0; s < num_shards(); ++s) {
            Stage(s, static_cast<int8_t>(side), e, h, route_now_us_, fid);
          }
          controller_->ObserveTuple(e->tuple().field(key_index_[side]), h,
                                    side, shard_map_.OwnerOf(h));
        }
        break;
      }
      const int s = shard_map_.OwnerOf(h);
      Stage(s, static_cast<int8_t>(side), e, h, route_now_us_, fid);
      controller_->ObserveTuple(e->tuple().field(key_index_[side]), h, side,
                                s);
      break;
    }
    case ElementKind::kPunctuation: {
      // A constant-key punctuation concerns exactly the shards that can
      // hold the key's state: the owning shard under the current map, or
      // every shard once the key is hot-replicated. Non-constant patterns
      // (range flush markers, wildcards) can cover keys of every shard and
      // broadcast. Staged order keeps the punctuation behind every tuple
      // dispatched before it, per shard.
      const Pattern& key_pattern = e->punctuation().pattern(key_index_[side]);
      int target = -1;  // every shard
      if (key_pattern.IsConstant()) {
        const uint64_t h = key_pattern.constant().Hash();
        if (!shard_map_.IsReplicated(h)) target = shard_map_.OwnerOf(h);
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

void ParallelJoinPipeline::PushCommand(int shard, RepartCommand cmd) {
  // FIFO order: everything staged for this shard precedes the command,
  // so the owner has processed every element of the key routed before the
  // decision when it extracts, and everything routed later follows it.
  FlushStaged(shard);
  RoutedBatch batch;
  batch.ingress_us = route_now_us_;
  batch.command = std::make_unique<RepartCommand>(std::move(cmd));
  PushRouted(shard, std::move(batch));
}

void ParallelJoinPipeline::ExecuteCommand(Shard* shard, RepartCommand& cmd) {
  TRACE_SPAN("par", "repart_command");
  if (cmd.kind == RepartCommand::Kind::kInstall) {
    shard->join->InstallKeyState(std::move(cmd.payload));
    return;
  }
  OutBatch out;
  out.handoff = std::make_unique<Result<KeyStateHandoff>>(
      shard->join->ExtractKeyState(cmd.key));
  // The answer must not overtake results recorded before the command:
  // flush anything staged first, then ship it in its own batch.
  FlushShardOut(shard, /*force=*/true);
  shard->out.PushBlocking(std::move(out));
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::Replicate(const RepartitionDecision& decision) {
  handoffs_started_.fetch_add(1);
  // The shards keep working through the staged tail while the router waits.
  for (int s = 0; s < num_shards(); ++s) FlushStaged(s);
  RepartCommand extract;
  extract.kind = RepartCommand::Kind::kExtract;
  extract.key = decision.key;
  PushCommand(decision.from, std::move(extract));
  // Routing pauses here until the owner answers, so no element is routed
  // between the extract and the map change it leads to. Park on the
  // activity eventcount between empty sweeps, as Run's final merge does.
  while (handoff_answer_ == nullptr) {
    const uint32_t seq = out_activity_.load();
    if (DrainOutputs() == 0) out_activity_.wait(seq);
  }
  const std::unique_ptr<Result<KeyStateHandoff>> answer =
      std::move(handoff_answer_);
  if (answer->ok()) {
    KeyStateHandoff& payload = answer->value();
    // Exactly-once across the replica set: only the BUILD (broadcast)
    // side's state is installed at the other shards. The spray side's
    // pre-handoff tuples stay at the owner alone — a post-handoff build
    // tuple broadcasts to every shard and must find each spray tuple at
    // exactly one of them.
    payload.entries[decision.spray_side].clear();
    // Each install sits in its destination's ring ahead of every element
    // routed after it, and an install cannot fail, so no destination is
    // waited on.
    for (int s = 0; s < num_shards(); ++s) {
      if (s == decision.from) continue;
      RepartCommand install;
      install.kind = RepartCommand::Kind::kInstall;
      install.payload = payload;  // one copy per destination
      PushCommand(s, std::move(install));
    }
    shard_map_.MarkReplicated(decision.key_hash, decision.spray_side);
    hot_keys_gauge_.Set(shard_map_.replicated_keys());
  } else {
    // Refused (ineligible state): nothing moved — the key stays where it
    // is and is not tried again.
    migration_rollbacks_.fetch_add(1);
    rollbacks_counter_.Add(1);
    controller_->OnHandoffRejected(decision.key_hash);
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
    if (repart_enabled_ && controller_->ShouldCheck()) {
      const RepartitionDecision decision = controller_->Decide();
      imbalance_gauge_.Set(
          static_cast<int64_t>(controller_->last_imbalance() * 1000.0));
      if (decision.kind != RepartitionDecision::Kind::kNone) {
        Replicate(decision);
      }
    }
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
  rollbacks_counter_ = registry.GetCounter("pjoin_migration_rollbacks_total",
                                           "pipeline=parallel");
  hot_keys_gauge_ =
      registry.GetGauge("pjoin_hot_keys_active", "pipeline=parallel");
  imbalance_gauge_ = registry.GetGauge("pjoin_shard_imbalance_permille",
                                       "pipeline=parallel");
  punct_pending_gauge_ =
      registry.GetGauge("pjoin_punct_pending_rounds", "pipeline=parallel");
  merged_results_.assign(static_cast<size_t>(num_shards()), 0);
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
    shard->depth_gauge =
        registry.GetGauge("pjoin_shard_queue_depth", labels);
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
    shard->stats.results = shard->join->results_emitted();
    shard->stats.puncts_emitted = shard->join->puncts_emitted();
    shard->stats.state_tuples = shard->join->total_state_tuples();
    stalls_reported_ += shard->stats.stalls;
    shard_stats_.push_back(shard->stats);
    if (status.ok() && !shard->status.ok()) status = shard->status;
  }
  return status;
}

}  // namespace pjoin

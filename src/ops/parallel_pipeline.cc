#include "ops/parallel_pipeline.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/introspection.h"
#include "obs/progress.h"
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
  /// backlog).
  std::atomic<int64_t> processed{0};
  /// Elements the router has pushed (written by the router only; atomic so
  /// the /statusz section can read it live).
  std::atomic<int64_t> enqueued{0};
  /// Live routed-element backlog (enqueued - processed), published by the
  /// worker once per batch.
  obs::Gauge depth_gauge;
  /// Live ring occupancies in batches (pjoin_ring_occupancy).
  obs::Gauge queue_occupancy_gauge;
  obs::Gauge out_occupancy_gauge;
  /// Times the worker entered the spin-then-park slow path on an empty
  /// routed ring (pjoin_shard_spin_parks).
  obs::Counter spin_parks_counter;
  /// Worker-local staging, moved into `out` as one OutBatch. Results always
  /// precede the releases recorded after them (the §3.3 ordering).
  std::vector<Tuple> local_results;
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
  // Key placement lives in one map consulted by tuple AND punctuation
  // routing; the repartition controller mutates it through handoffs.
  shard_map_.Reset(options_.num_shards);
  repart_enabled_ = options_.repartition.enabled && options_.num_shards > 1;
  if (repart_enabled_) {
    controller_ = std::make_unique<RepartitionController>(
        options_.repartition, &shard_map_);
    const FaultPlan* plan = options_.repartition.fault_plan;
    if (plan != nullptr && plan->migration.enabled()) {
      repart_injector_ = std::make_unique<FaultInjector>(plan->seed);
    }
  }
}

ParallelJoinPipeline::~ParallelJoinPipeline() = default;

void ParallelJoinPipeline::FlushShardOut(Shard* shard, bool force) {
  if (shard->local_results.empty() && shard->local_releases.empty()) return;
  // Releases always flush promptly (the merger's board is waiting on them);
  // bare results batch up to kResultFlush.
  if (!force && shard->local_releases.empty() &&
      shard->local_results.size() < kResultFlush) {
    return;
  }
  OutBatch out;
  out.results = std::move(shard->local_results);
  out.releases = std::move(shard->local_releases);
  out.flow_id = shard->pending_flow_id;
  shard->pending_flow_id = 0;
  shard->local_results.clear();
  shard->local_releases.clear();
  // The moved-from vector restarts at zero capacity; reserving the flush
  // threshold up front spares the next batch the doubling re-allocations
  // (each of which would move every staged Tuple again).
  shard->local_results.reserve(kResultFlush);
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
  for (Tuple& t : out.results) {
    ++results_emitted_;
    if (on_result_) on_result_(t);
  }
  for (Punctuation& p : out.releases) {
    TRACE_INSTANT("par", "punct_release");
    // One emission per round this release completed (ops/release_board.h).
    for (int n = release_board_.Release(p, shard); n > 0; --n) {
      ++puncts_emitted_;
      obs::FrontierTracker::Global().NoteReleased();
      if (on_punct_) on_punct_(p);
    }
  }
  if (!out.releases.empty()) {
    punct_pending_gauge_.Set(release_board_.pending_rounds());
  }
  if (out.handoff != nullptr) {
    // The source's extract answer. This can run deep inside DrainOutputs,
    // so PumpRepartition acts on it at the router's next safe point.
    PJOIN_DCHECK(active_handoff_ != nullptr &&
                 active_handoff_->id == out.handoff->handoff_id);
    active_handoff_->answer = std::move(out.handoff);
  }
}

size_t ParallelJoinPipeline::DrainOutputs() {
  size_t merged = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    OutBatch out;
    while (shards_[i]->out.TryPop(&out)) {
      if (repart_enabled_) {
        merged_results_[i] += static_cast<int64_t>(out.results.size());
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
  router_backpressure_waits_.fetch_add(1);
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
      shard->processed.fetch_add(static_cast<int64_t>(n));
    }
    // Once-per-batch live publication: backlog, ring occupancies, and the
    // join's state gauges (the worker owns the join, so the HashState reads
    // are safe).
    shard->depth_gauge.Set(shard->enqueued.load() - shard->processed.load());
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
      if (active_handoff_ != nullptr && h == active_handoff_->key_hash) {
        // The fenced key's stream pauses at the router while its state is
        // in flight; everything else keeps flowing.
        deferred_.emplace_back(static_cast<int8_t>(side), e);
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
      if (active_handoff_ != nullptr) {
        // Any punctuation may interact with the in-flight key (a range can
        // cover it; even a constant-key one races the ownership flip), and
        // a punctuation only ever covers PAST tuples — parking it with the
        // fence delays its release without ever violating §3.3.
        deferred_.emplace_back(static_cast<int8_t>(side), e);
        break;
      }
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
      // Frontier accounting (obs/progress.h): every dispatch is an ingress
      // for the (side, scheme, shard) cell; the shard's join answers with
      // NoteProcessed, and the gap is the shard's frontier lag.
      const std::string_view scheme = PatternKindName(key_pattern.kind());
      const std::string punct_desc = e->punctuation().ToString();
      obs::FrontierTracker& frontier = obs::FrontierTracker::Global();
      const int first = target < 0 ? 0 : target;
      const int last = target < 0 ? num_shards() : target + 1;
      for (int s = first; s < last; ++s) {
        Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0, route_now_us_);
        frontier.NoteIngress(side, scheme, s, route_now_us_, punct_desc);
      }
      break;
    }
    case ElementKind::kEndOfStream: {
      if (active_handoff_ != nullptr) {
        // EOS must stay behind every parked element, and parking it keeps
        // the router loop alive until the fence resolves.
        deferred_.emplace_back(static_cast<int8_t>(side), e);
        break;
      }
      for (int s = 0; s < num_shards(); ++s) {
        Stage(s, static_cast<int8_t>(side), e, /*key_hash=*/0, route_now_us_);
      }
      break;
    }
  }
}

void ParallelJoinPipeline::StartHandoff(const RepartitionDecision& decision) {
  PJOIN_DCHECK(active_handoff_ == nullptr);
  handoffs_started_.fetch_add(1);
  active_handoff_ = std::make_unique<ActiveHandoff>();
  active_handoff_->id = ++next_handoff_id_;
  active_handoff_->key_hash = decision.key_hash;
  active_handoff_->from = decision.from;
  active_handoff_->spray_side = decision.spray_side;
  RepartCommand cmd;
  cmd.kind = RepartCommand::Kind::kExtract;
  cmd.key = decision.key;
  cmd.handoff_id = active_handoff_->id;
  if (repart_injector_ != nullptr) {
    cmd.inject_failure = repart_injector_->Roll(
        options_.repartition.fault_plan->migration.extract_error_rate);
    if (cmd.inject_failure) repart_injector_->Count("migration_extract");
  }
  PushCommand(decision.from, std::move(cmd));
}

void ParallelJoinPipeline::PushCommand(int shard, RepartCommand cmd) {
  // FIFO fencing: everything staged for this shard precedes the command,
  // so the source has processed every pre-fence element of the key before
  // it extracts, and everything routed later follows it.
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
  auto answer = std::make_unique<HandoffOut>();
  answer->handoff_id = cmd.handoff_id;
  if (cmd.inject_failure) {
    answer->status = Status::IOError("injected migration extract fault");
  } else {
    Result<KeyStateHandoff> extracted = shard->join->ExtractKeyState(cmd.key);
    if (extracted.ok()) {
      answer->payload = std::move(extracted).value();
    } else {
      answer->status = extracted.status();
    }
  }
  // The router is fenced on this answer: flush anything staged first (the
  // answer must not overtake results recorded before the command), then
  // ship it in its own batch.
  FlushShardOut(shard, /*force=*/true);
  OutBatch out;
  out.handoff = std::move(answer);
  shard->out.PushBlocking(std::move(out));
  out_activity_.fetch_add(1);
  out_activity_.notify_all();
}

void ParallelJoinPipeline::PumpRepartition() {
  if (active_handoff_ == nullptr || active_handoff_->answer == nullptr) return;
  const std::unique_ptr<ActiveHandoff> handoff = std::move(active_handoff_);
  HandoffOut& answer = *handoff->answer;
  if (answer.status.ok()) {
    // Exactly-once across the replica set: only the BUILD (broadcast)
    // side's state is installed at the other shards. The spray side's
    // pre-handoff tuples stay at the owner alone — a post-handoff build
    // tuple broadcasts to every shard and must find each spray tuple at
    // exactly one of them.
    answer.payload.entries[handoff->spray_side].clear();
    // Each install sits in its destination's ring ahead of every element
    // routed after it, and an install cannot fail, so the map flips and
    // the fence lifts now — no destination is waited on.
    for (int s = 0; s < num_shards(); ++s) {
      if (s == handoff->from) continue;
      RepartCommand cmd;
      cmd.kind = RepartCommand::Kind::kInstall;
      cmd.payload = answer.payload;  // one copy per destination
      PushCommand(s, std::move(cmd));
    }
    shard_map_.MarkReplicated(handoff->key_hash, handoff->spray_side);
    hot_keys_gauge_.Set(shard_map_.replicated_keys());
  } else {
    // Refused (ineligible state) or injected failure: nothing moved — the
    // key stays where it is and is not tried again.
    migration_rollbacks_.fetch_add(1);
    rollbacks_counter_.Add(1);
    controller_->OnHandoffRejected(handoff->key_hash);
  }
  // Replay everything the fence parked, in arrival order, under the
  // updated map. A replay cannot start a new fence (decisions are made
  // only in the router main loop), so this does not recurse.
  std::vector<std::pair<int8_t, const StreamElement*>> parked;
  parked.swap(deferred_);
  for (const auto& [side, e] : parked) RouteElement(side, e);
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
    if (repart_enabled_) {
      if (active_handoff_ == nullptr && controller_->ShouldCheck()) {
        const RepartitionDecision decision = controller_->Decide();
        imbalance_gauge_.Set(
            static_cast<int64_t>(controller_->last_imbalance() * 1000.0));
        if (decision.kind != RepartitionDecision::Kind::kNone) {
          StartHandoff(decision);
        }
      }
      PumpRepartition();
    }
    if (++since_drain >= static_cast<int64_t>(options_.batch_size)) {
      since_drain = 0;
      DrainOutputs();
      PumpRepartition();
    }
  }
  // A fence still up holds the tail of the input parked (both end-of-stream
  // markers at least): keep merging until the source answers and the
  // replay routes it.
  while (active_handoff_ != nullptr) {
    DrainOutputs();
    PumpRepartition();
    std::this_thread::yield();
  }
  PJOIN_DCHECK(deferred_.empty());
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
  // Wire per-shard output staging: results queue up locally; a punctuation
  // release is recorded behind them, and FlushShardOut moves both into the
  // shard's output ring with that order intact — so by the time the merger
  // counts the last shard's release, every covered result has already been
  // emitted ahead of it.
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    shard->local_results.reserve(kResultFlush);
    shard->join->set_result_callback([shard](Tuple&& t) {
      shard->local_results.push_back(std::move(t));
    });
    shard->join->set_punct_callback([shard](const Punctuation& p) {
      shard->local_releases.push_back(p);
    });
    const std::string labels =
        "pipeline=parallel,shard=" + std::to_string(shard->id);
    shard->join->BindLatencyMetrics(labels);
    shard->join->BindStateGauges(labels);
    // Frontier accounting: the shard's join reports processed punctuations
    // (and PJoin its purge expectations) to the cell the router feeds.
    shard->join->BindFrontier(shard->id);
    shard->depth_gauge =
        registry.GetGauge("pjoin_shard_queue_depth", labels);
    shard->queue_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=shard_" + std::to_string(shard->id));
    shard->out_occupancy_gauge = registry.GetGauge(
        "pjoin_ring_occupancy", "edge=out_" + std::to_string(shard->id));
    shard->spin_parks_counter =
        registry.GetCounter("pjoin_shard_spin_parks", labels);
  }

  // Live /statusz contribution for the duration of the run: per-shard ring
  // occupancy and router/worker progress, all read through atomics so the
  // server's handler threads can call this any time.
  obs::ScopedStatusSection statusz_section(
      "parallel pipeline", [this]() {
        std::string out;
        for (const auto& shard : shards_) {
          out.append("shard ");
          out.append(std::to_string(shard->id));
          out.append(": queue_batches=");
          out.append(std::to_string(shard->queue.size()));
          out.append(" depth=");
          out.append(std::to_string(shard->enqueued.load() -
                                    shard->processed.load()));
          out.append(" enqueued=");
          out.append(std::to_string(shard->enqueued.load()));
          out.append(" processed=");
          out.append(std::to_string(shard->processed.load()));
          out.push_back('\n');
        }
        out.append("router: backpressure_waits=");
        out.append(std::to_string(router_backpressure_waits_.load()));
        out.append(" shard_spin_parks=");
        out.append(std::to_string(shard_spin_parks_.load()));
        out.push_back('\n');
        return out;
      });

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

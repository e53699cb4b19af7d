#include "join/pjoin.h"

#include <algorithm>

#include "obs/trace.h"

namespace pjoin {

// Maps the monitor's notion of "now" to the virtual time of the most
// recently processed stream element.
class PJoin::ArrivalClock : public Clock {
 public:
  explicit ArrivalClock(const JoinOperator* op) : op_(op) {}
  TimeMicros NowMicros() const override { return op_->last_arrival(); }

 private:
  const JoinOperator* op_;
};

// An event listener that forwards to a PJoin member function.
class PJoin::Component : public EventListener {
 public:
  using Handler = Status (PJoin::*)();

  Component(PJoin* join, std::string name, Handler handler)
      : join_(join), name_(std::move(name)), handler_(handler) {}

  std::string_view name() const override { return name_; }

  Status HandleEvent(const Event& event) override {
    (void)event;
    return (join_->*handler_)();
  }

 private:
  PJoin* join_;
  std::string name_;
  Handler handler_;
};

PJoin::PJoin(SchemaPtr left_schema, SchemaPtr right_schema,
             JoinOptions options)
    : JoinOperator(std::move(left_schema), std::move(right_schema),
                   std::move(options)) {
  punct_sets_[0] = std::make_unique<PunctuationSet>(
      this->options().left_key, this->options().validate_prefix);
  punct_sets_[1] = std::make_unique<PunctuationSet>(
      this->options().right_key, this->options().validate_prefix);
  clock_ = std::make_unique<ArrivalClock>(this);
  monitor_ =
      std::make_unique<Monitor>(this->options().runtime, &registry_,
                                clock_.get());
  disk_pass_tick_.assign(
      static_cast<size_t>(this->options().num_partitions), -1);

  purge_component_ =
      std::make_unique<Component>(this, "state-purge", &PJoin::RunPurge);
  relocation_component_ = std::make_unique<Component>(
      this, "state-relocation", &PJoin::RelocateUntilBelowThreshold);
  disk_join_component_ =
      std::make_unique<Component>(this, "disk-join", &PJoin::RunDiskJoin);
  marked_disk_join_component_ = std::make_unique<Component>(
      this, "disk-join", &PJoin::RunMarkedDiskJoin);
  index_build_component_ = std::make_unique<Component>(
      this, "index-build", &PJoin::RunIndexBuildBoth);
  propagation_component_ = std::make_unique<Component>(
      this, "propagation", &PJoin::RunPropagation);

  // The event-listener registry (paper Table 1). Listeners run in
  // registration order: before propagating we first finish left-over joins
  // (disk join over the partitions where some disk-resident tuple may be
  // unindexed, only when there is one) and build the punctuation index.
  registry_.Register(EventType::kPurgeThresholdReach, purge_component_.get());
  registry_.Register(EventType::kStateFull, relocation_component_.get());
  registry_.Register(EventType::kDiskJoinActivate, disk_join_component_.get());
  for (EventType type :
       {EventType::kPropagateCountReach, EventType::kPropagateTimeExpire,
        EventType::kPropagateRequest}) {
    registry_.Register(type, marked_disk_join_component_.get(),
                       [this](const Event&) {
                         return state(0).has_unindexed_disk() ||
                                state(1).has_unindexed_disk();
                       });
    registry_.Register(type, index_build_component_.get());
    registry_.Register(type, propagation_component_.get());
  }

  // Under memory pressure, let the SpillManager purge punctuation-dead
  // tuples of the victim partition in place before paying the disk write
  // (PJoin's edge over any plain hybrid-hash spiller).
  spill_manager().set_early_purger([this](int side, int p) {
    return EarlyPurgePartition(side, p);
  });
}

PJoin::~PJoin() = default;

const PunctuationSet& PJoin::punct_set(int side) const {
  PJOIN_DCHECK(side == 0 || side == 1);
  return *punct_sets_[side];
}

const std::vector<Tuple>& PJoin::quarantined_tuples(int side) const {
  PJOIN_DCHECK(side == 0 || side == 1);
  return quarantined_tuples_[side];
}

const std::vector<Punctuation>& PJoin::quarantined_puncts(int side) const {
  PJOIN_DCHECK(side == 0 || side == 1);
  return quarantined_puncts_[side];
}

Status PJoin::OnContractViolation(int side, std::string_view kind,
                                  const Tuple* tuple,
                                  const Punctuation* punct) {
  counters().Add("contract_violations");
  counters().Add("violation_" + std::string(kind));
  PJOIN_RETURN_NOT_OK(registry_.Dispatch(Event{EventType::kContractViolation,
                                               last_arrival(), side,
                                               std::string(kind)}));
  switch (options().violation_policy) {
    case ViolationPolicy::kQuarantine:
      if (tuple != nullptr) quarantined_tuples_[side].push_back(*tuple);
      if (punct != nullptr) quarantined_puncts_[side].push_back(*punct);
      return Status::OK();
    case ViolationPolicy::kFail:
      return Status::FailedPrecondition(
          "punctuation-contract violation on stream " +
          std::to_string(side) + ": " + std::string(kind));
    case ViolationPolicy::kIgnore:  // unreachable: checks are off
    case ViolationPolicy::kDrop:
      return Status::OK();
  }
  return Status::OK();
}

Status PJoin::OnTupleHashed(int side, const Tuple& tuple,
                            uint64_t key_hash) {
  // Contract check: this stream promised — via one of its own earlier
  // punctuations — never to send a tuple with this key again. Processing a
  // late tuple would corrupt purge decisions (its matches may already be
  // purged from the opposite state), so it is dropped/quarantined before it
  // can probe or be stored.
  if (options().violation_policy != ViolationPolicy::kIgnore &&
      punct_sets_[side]->SetMatchKey(state(side).KeyOf(tuple))) {
    return OnContractViolation(side, "late_tuple", &tuple, nullptr);
  }
  const int64_t tick = NextTick();
  HashState& own = mutable_state(side);
  HashState& opp = mutable_state(1 - side);
  ProbeOppositeMemory(side, tuple, key_hash);

  // On-the-fly drop (§4.3): a tuple already covered by the opposite
  // stream's punctuations can never join future opposite tuples; it only
  // still owes joins against the opposite disk portion, if any.
  if (options().drop_on_the_fly &&
      punct_sets_[1 - side]->SetMatchKey(own.KeyOf(tuple))) {
    const int p = own.PartitionOfHash(key_hash);
    if (opp.disk_tuples(p) > 0) {
      TupleEntry entry;
      entry.tuple = tuple;
      entry.ats = tick;
      entry.dts = tick + 1;  // present only during its own arrival tick
      entry.key_hash = key_hash;
      own.AddToPurgeBuffer(p, std::move(entry));
      counters().Add("otf_to_purge_buffer");
    } else {
      counters().Add("otf_drops");
    }
  } else {
    InsertTuple(side, tuple, tick, key_hash);
  }

  PJOIN_RETURN_NOT_OK(monitor_->OnStateSizeChanged(memory_state_tuples(),
                                                   memory_state_bytes()));
  return monitor_->Tick();
}

Status PJoin::OnPunctuation(int side, const Punctuation& punct) {
  // Contract checks: a malformed punctuation (wrong arity for the schema,
  // or containing an empty pattern) must never reach the punctuation set —
  // its patterns would be evaluated against the wrong attributes and could
  // purge state that still owes joins.
  if (options().violation_policy != ViolationPolicy::kIgnore) {
    if (punct.num_patterns() != state(side).schema()->num_fields()) {
      return OnContractViolation(side, "malformed_punctuation_arity", nullptr,
                                 &punct);
    }
    if (punct.IsEmpty()) {
      return OnContractViolation(side, "malformed_punctuation_empty", nullptr,
                                 &punct);
    }
  }
  TRACE_INSTANT("pjoin", "punct_arrival");
  NextTick();
  HashState& own = mutable_state(side);
  Result<int64_t> pid = punct_sets_[side]->Add(punct, last_arrival());
  if (!pid.ok()) {
    // With prefix validation on, a non-prefix punctuation is routed through
    // the violation policy instead of aborting the join outright.
    if (options().violation_policy != ViolationPolicy::kIgnore &&
        pid.status().code() == StatusCode::kFailedPrecondition) {
      return OnContractViolation(side, "non_prefix_punctuation", nullptr,
                                 &punct);
    }
    return pid.status();
  }

  // Disk-resident tuples have not been evaluated against the new
  // punctuation: this stream's may now take its pid, the opposite stream's
  // may now be purged. Propagation must first run a disk pass over the
  // partitions its join-key pattern can reach, in either state.
  auto mark = [this](int p) {
    for (int s = 0; s < 2; ++s) {
      if (state(s).disk_tuples(p) > 0) {
        mutable_state(s).set_has_unindexed_disk(p, true);
      }
    }
  };
  const Pattern& key_pattern = punct.pattern(own.key_index());
  if (key_pattern.IsConstant()) {
    mark(own.PartitionOf(key_pattern.constant()));
  } else {
    for (int p = 0; p < own.num_partitions(); ++p) mark(p);
  }

  if (options().eager_index_build) {
    PJOIN_RETURN_NOT_OK(RunIndexBuild(side));
  }
  PJOIN_RETURN_NOT_OK(monitor_->OnPunctuationArrived(side));
  return monitor_->Tick();
}

Status PJoin::OnStreamsStalled() {
  return monitor_->OnStreamsEmpty(state(0).disk_tuples() +
                                  state(1).disk_tuples());
}

Status PJoin::RequestPropagation() { return monitor_->RequestPropagation(); }

Status PJoin::RunPurge() {
  TRACE_SPAN("pjoin", "purge");
  counters().Add("purge_runs");
  PJOIN_RETURN_NOT_OK(PurgeState(0));
  PJOIN_RETURN_NOT_OK(PurgeState(1));
  monitor_->OnPurgeRan();
  PJOIN_RETURN_NOT_OK(monitor_->OnStateSizeChanged(memory_state_tuples(),
                                                   memory_state_bytes()));
  if (options().eager_propagation) {
    PJOIN_RETURN_NOT_OK(RunPropagation());
  }
  return Status::OK();
}

Status PJoin::PurgeState(int side) {
  HashState& own = mutable_state(side);
  HashState& opp = mutable_state(1 - side);
  PunctuationSet& opp_ps = *punct_sets_[1 - side];
  if (opp_ps.empty()) return Status::OK();
  const int64_t purge_tick = NextTick();

  auto dispose = [&](int p, std::vector<TupleEntry> extracted) {
    for (TupleEntry& e : extracted) {
      e.dts = purge_tick;
      if (opp.disk_tuples(p) > 0) {
        // The tuple may still join opposite disk-resident tuples: park it in
        // the purge buffer until the disk join clears it (paper §3.1).
        own.AddToPurgeBuffer(p, std::move(e));
        counters().Add("purge_buffered");
      } else {
        DiscardEntry(side, e);
        counters().Add("purged_tuples");
      }
    }
  };

  if (options().purge_mode == PurgeMode::kScan) {
    // The paper's algorithm: scan the memory state applying setMatch. The
    // scan cost, proportional to the state size, is what makes eager purge
    // expensive (Fig 9).
    opp_ps.TakeUnappliedForPurge();  // mark them applied
    for (int p = 0; p < own.num_partitions(); ++p) {
      counters().Add("purge_scanned",
                     static_cast<int64_t>(own.memory(p).size()));
      dispose(p, own.ExtractMemoryMatching(p, [&](const TupleEntry& e) {
        return opp_ps.SetMatchKey(own.KeyOf(e.tuple));
      }));
    }
  } else {
    // Indexed purge (extension): jump straight to the partitions named by
    // the not-yet-applied punctuations. (Pair with drop_on_the_fly: covered
    // tuples arriving after a punctuation was applied are handled there.)
    for (int64_t pid : opp_ps.TakeUnappliedForPurge()) {
      const PunctEntry* pe = opp_ps.Find(pid);
      if (pe == nullptr || !pe->key_only) continue;
      const Pattern& pattern = pe->punct.pattern(opp.key_index());
      if (pattern.IsConstant()) {
        const int p = own.PartitionOf(pattern.constant());
        counters().Add("purge_scanned",
                       static_cast<int64_t>(own.memory(p).size()));
        dispose(p, own.ExtractMemoryMatching(p, [&](const TupleEntry& e) {
          return own.KeyOf(e.tuple) == pattern.constant();
        }));
      } else {
        for (int p = 0; p < own.num_partitions(); ++p) {
          counters().Add("purge_scanned",
                         static_cast<int64_t>(own.memory(p).size()));
          dispose(p, own.ExtractMemoryMatching(p, [&](const TupleEntry& e) {
            return pattern.Matches(own.KeyOf(e.tuple));
          }));
        }
      }
    }
  }
  return Status::OK();
}

EarlyPurgeOutcome PJoin::EarlyPurgePartition(int side, int p) {
  EarlyPurgeOutcome out;
  HashState& own = mutable_state(side);
  HashState& opp = mutable_state(1 - side);
  PunctuationSet& opp_ps = *punct_sets_[1 - side];
  if (opp_ps.empty()) return out;
  const int64_t purge_tick = NextTick();
  std::vector<TupleEntry> extracted =
      own.ExtractMemoryMatching(p, [&](const TupleEntry& e) {
        return opp_ps.SetMatchKey(own.KeyOf(e.tuple));
      });
  // Same disposal rule as PurgeState: covered tuples that may still join
  // the opposite disk portion park in the purge buffer, the rest leave the
  // join entirely (their punctuations' match counts drop).
  for (TupleEntry& e : extracted) {
    ++out.tuples;
    out.bytes += static_cast<int64_t>(e.tuple.ByteSize());
    e.dts = purge_tick;
    if (opp.disk_tuples(p) > 0) {
      own.AddToPurgeBuffer(p, std::move(e));
      counters().Add("purge_buffered");
    } else {
      DiscardEntry(side, e);
      counters().Add("purged_tuples");
    }
  }
  if (out.tuples > 0) counters().Add("early_purge_passes");
  return out;
}

Status PJoin::DiskJoinPass(bool marked_only) {
  TRACE_SPAN("pjoin", "disk_join");
  counters().Add("disk_join_runs");
  for (int p = 0; p < state(0).num_partitions(); ++p) {
    if (marked_only && !state(0).has_unindexed_disk(p) &&
        !state(1).has_unindexed_disk(p) && state(0).purge_buffer(p).empty() &&
        state(1).purge_buffer(p).empty()) {
      continue;
    }
    PJOIN_RETURN_NOT_OK(DiskJoinPartition(p));
    mutable_state(0).set_has_unindexed_disk(p, false);
    mutable_state(1).set_has_unindexed_disk(p, false);
  }
  return Status::OK();
}

Status PJoin::DiskJoinPartition(int p) {
  HashState& left = mutable_state(0);
  HashState& right = mutable_state(1);
  const bool any_disk = left.disk_tuples(p) > 0 || right.disk_tuples(p) > 0;
  const bool any_buffered =
      !left.purge_buffer(p).empty() || !right.purge_buffer(p).empty();
  if (!any_disk && !any_buffered) return Status::OK();

  const int64_t pass_tick = NextTick();
  PJOIN_ASSIGN_OR_RETURN(std::vector<TupleEntry> disk_l,
                         left.ReadDiskPartition(p));
  PJOIN_ASSIGN_OR_RETURN(std::vector<TupleEntry> disk_r,
                         right.ReadDiskPartition(p));
  // This pass is recorded only after the histories' last use below.
  const std::vector<int64_t>& probes_l = left.probe_times(p);
  const std::vector<int64_t>& probes_r = right.probe_times(p);
  static const std::vector<int64_t> kNoProbes;
  int64_t compared = 0;

  // The cached key hashes filter out most non-matching pairs before the
  // (potentially string) key comparison.
  auto keys_equal = [&](const TupleEntry& l, const TupleEntry& r) {
    ++compared;
    return l.key_hash == r.key_hash &&
           left.KeyOf(l.tuple) == right.KeyOf(r.tuple);
  };

  // 1) disk x opposite memory (XJoin's stages 2/3 combined); the memory
  // side is probed through its hash index.
  for (const TupleEntry& l : disk_l) {
    compared += right.ForEachMemoryMatch(
        p, left.KeyOf(l.tuple), l.key_hash, [&](const TupleEntry& r) {
          if (!JoinedBefore(l, probes_l, r, probes_r)) {
            EmitResult(l.tuple, r.tuple);
          }
        });
  }
  for (const TupleEntry& r : disk_r) {
    compared += left.ForEachMemoryMatch(
        p, right.KeyOf(r.tuple), r.key_hash, [&](const TupleEntry& l) {
          if (!JoinedBefore(l, probes_l, r, probes_r)) {
            EmitResult(l.tuple, r.tuple);
          }
        });
  }

  // 2) disk x disk; pairs that were both on disk by the previous pass over
  // this partition were already joined then.
  const int64_t last_pass = disk_pass_tick_[static_cast<size_t>(p)];
  for (const TupleEntry& l : disk_l) {
    for (const TupleEntry& r : disk_r) {
      if (last_pass >= 0 && l.dts <= last_pass && r.dts <= last_pass) {
        continue;
      }
      if (keys_equal(l, r) && !JoinedBefore(l, probes_l, r, probes_r)) {
        EmitResult(l.tuple, r.tuple);
      }
    }
  }

  // 3) purge buffers x opposite disk, then discard the buffers: their
  // entries owe nothing else (no future opposite tuple can match a purged
  // tuple's key, by punctuation semantics).
  std::vector<TupleEntry> buf_l = left.TakePurgeBuffer(p);
  std::vector<TupleEntry> buf_r = right.TakePurgeBuffer(p);
  for (const TupleEntry& l : buf_l) {
    for (const TupleEntry& r : disk_r) {
      if (keys_equal(l, r) && !JoinedBefore(l, kNoProbes, r, probes_r)) {
        EmitResult(l.tuple, r.tuple);
      }
    }
  }
  for (const TupleEntry& r : buf_r) {
    for (const TupleEntry& l : disk_l) {
      if (keys_equal(l, r) && !JoinedBefore(l, probes_l, r, kNoProbes)) {
        EmitResult(l.tuple, r.tuple);
      }
    }
  }
  for (const TupleEntry& e : buf_l) DiscardEntry(0, e);
  for (const TupleEntry& e : buf_r) DiscardEntry(1, e);
  counters().Add("purge_buffer_cleared",
                 static_cast<int64_t>(buf_l.size() + buf_r.size()));

  // 4) purge and re-index the disk portions. A disk tuple covered by the
  // opposite punctuations has now completed every owed join and can go;
  // survivors that were flushed before they could be indexed get their pid
  // assigned here.
  auto compact = [&](int side, std::vector<TupleEntry>& entries) -> Status {
    HashState& own = mutable_state(side);
    PunctuationSet& own_ps = *punct_sets_[side];
    PunctuationSet& opp_ps = *punct_sets_[1 - side];
    std::vector<TupleEntry> survivors;
    survivors.reserve(entries.size());
    bool reindexed = false;
    int64_t purged = 0;
    for (TupleEntry& e : entries) {
      if (opp_ps.SetMatchKey(own.KeyOf(e.tuple))) {
        DiscardEntry(side, e);
        ++purged;
        continue;
      }
      if (e.pid == kNullPid) {
        PunctuationIndexer::IndexEntry(&own_ps, &e);
        if (e.pid != kNullPid) reindexed = true;
      }
      survivors.push_back(std::move(e));
    }
    if (purged > 0 || reindexed) {
      PJOIN_RETURN_NOT_OK(own.RewriteDiskPartition(p, survivors));
      counters().Add("disk_purged_tuples", purged);
    }
    return Status::OK();
  };
  if (left.disk_tuples(p) > 0) PJOIN_RETURN_NOT_OK(compact(0, disk_l));
  if (right.disk_tuples(p) > 0) PJOIN_RETURN_NOT_OK(compact(1, disk_r));

  counters().Add("disk_comparisons", compared);
  left.RecordProbe(p, pass_tick);
  right.RecordProbe(p, pass_tick);
  disk_pass_tick_[static_cast<size_t>(p)] = pass_tick;
  return Status::OK();
}

Status PJoin::RunIndexBuild(int side) {
  TRACE_SPAN("pjoin", "index_build");
  PunctuationIndexer::BuildIndex(punct_sets_[side].get(),
                                 &mutable_state(side), &counters());
  return Status::OK();
}

Status PJoin::RunIndexBuildBoth() {
  PJOIN_RETURN_NOT_OK(RunIndexBuild(0));
  return RunIndexBuild(1);
}

Status PJoin::RunPropagation() {
  TRACE_SPAN("pjoin", "propagation");
  // Defensive re-checks: the registry normally schedules the disk join and
  // index build ahead of propagation, but pull-mode callers may reach this
  // directly.
  if (state(0).has_unindexed_disk() || state(1).has_unindexed_disk()) {
    PJOIN_RETURN_NOT_OK(RunMarkedDiskJoin());
  }
  for (int side = 0; side < 2; ++side) {
    PJOIN_RETURN_NOT_OK(RunIndexBuild(side));
    std::vector<Punctuation> released =
        Propagator::Propagate(punct_sets_[side].get());
    for (const Punctuation& punct : released) {
      EmitPunctuation(MakeOutputPunct(side, punct));
    }
  }
  monitor_->OnPropagationRan();
  counters().Add("propagation_runs");
  return Status::OK();
}

void PJoin::DiscardEntry(int side, const TupleEntry& entry) {
  PunctuationIndexer::OnEntryDiscarded(punct_sets_[side].get(), entry);
}

Status PJoin::Finish() {
  // Complete all left-over joins (cleanup), then give punctuations a final
  // chance to propagate.
  PJOIN_RETURN_NOT_OK(RunDiskJoin());
  if (options().propagate_on_finish) {
    PJOIN_RETURN_NOT_OK(RunPropagation());
  }
  return Status::OK();
}

void PJoin::PublishExtraGauges() {
  if (!extra_gauges_bound_) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static constexpr std::string_view kSide[2] = {"side=left", "side=right"};
    for (int side = 0; side < 2; ++side) {
      punct_set_gauge_[side] = registry.GetGauge(
          "pjoin_punct_set_size",
          JoinLabels(state_gauge_labels(), kSide[side]));
    }
    puncts_since_purge_gauge_ =
        registry.GetGauge("pjoin_puncts_since_purge", state_gauge_labels());
    extra_gauges_bound_ = true;
  }
  for (int side = 0; side < 2; ++side) {
    punct_set_gauge_[side].Set(
        static_cast<int64_t>(punct_sets_[side]->size()));
  }
  puncts_since_purge_gauge_.Set(monitor_->puncts_since_purge(0) +
                                monitor_->puncts_since_purge(1));
}

}  // namespace pjoin

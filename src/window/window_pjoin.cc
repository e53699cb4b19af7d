#include "window/window_pjoin.h"

#include "join/punct_index.h"

namespace pjoin {

WindowPJoin::WindowPJoin(SchemaPtr left_schema, SchemaPtr right_schema,
                         WindowJoinOptions options)
    : options_(options) {
  PJOIN_DCHECK(options_.num_partitions > 0);
  PJOIN_DCHECK(options_.window_micros > 0);
  output_schema_ = Schema::Concat(*left_schema, *right_schema);
  sides_[0].schema = std::move(left_schema);
  sides_[0].key_index = options_.left_key;
  sides_[1].schema = std::move(right_schema);
  sides_[1].key_index = options_.right_key;
  for (SideState& s : sides_) {
    PJOIN_DCHECK(s.key_index < s.schema->num_fields());
    s.buckets.resize(static_cast<size_t>(options_.num_partitions));
    s.puncts = std::make_unique<PunctuationSet>(s.key_index);
  }
}

int WindowPJoin::PartitionOf(const SideState& s, const Value& key) const {
  (void)s;
  return static_cast<int>(key.Hash() %
                          static_cast<uint64_t>(options_.num_partitions));
}

int64_t WindowPJoin::state_tuples(int side) const {
  PJOIN_DCHECK(side == 0 || side == 1);
  return state_tuples_[side];
}

Status WindowPJoin::OnElement(int side, const StreamElement& element) {
  PJOIN_DCHECK(side == 0 || side == 1);
  PJOIN_DCHECK(!finished_);
  switch (element.kind()) {
    case ElementKind::kTuple:
      return OnTuple(side, element.tuple(), element.arrival());
    case ElementKind::kPunctuation:
      return OnPunctuation(side, element.punctuation(), element.arrival());
    case ElementKind::kEndOfStream:
      eos_[side] = true;
      if (eos_[0] && eos_[1]) {
        finished_ = true;
        return Finish();
      }
      return Status::OK();
  }
  return Status::Internal("unknown element kind");
}

void WindowPJoin::ExpireSide(int side, TimeMicros now) {
  const TimeMicros cutoff = now - options_.window_micros;
  SideState& s = sides_[side];
  for (auto& bucket : s.buckets) {
    // Buckets are in arrival order: stop at the first valid tuple.
    while (!bucket.empty() && bucket.front().arrival < cutoff) {
      bucket.pop_front();
      --state_tuples_[side];
      counters_.Add("window_expired");
    }
  }
}

Status WindowPJoin::OnTuple(int side, const Tuple& tuple,
                            TimeMicros arrival) {
  SideState& own = sides_[side];
  SideState& opp = sides_[1 - side];
  // Tuple invalidation by window, combined with the state probing (§6).
  ExpireSide(1 - side, arrival);

  const Value& key = tuple.field(own.key_index);
  const int p = PartitionOf(own, key);
  for (const TimedEntry& e : opp.buckets[static_cast<size_t>(p)]) {
    counters_.Add("probe_comparisons");
    if (e.tuple.field(opp.key_index) == key) {
      if (side == 0) {
        EmitResult(tuple, e.tuple);
      } else {
        EmitResult(e.tuple, tuple);
      }
    }
  }

  // On-the-fly drop: covered by opposite punctuations means no future
  // opposite tuple can match; the probe above already handled the past.
  if (options_.exploit_punctuations && opp.puncts->SetMatchKey(key)) {
    counters_.Add("otf_drops");
    return Status::OK();
  }
  own.buckets[static_cast<size_t>(p)].push_back(TimedEntry{tuple, arrival});
  ++state_tuples_[side];
  return Status::OK();
}

void WindowPJoin::PurgeByPunctuations(int side) {
  SideState& own = sides_[side];
  const PunctuationSet& opp_ps = *sides_[1 - side].puncts;
  for (auto& bucket : own.buckets) {
    for (auto it = bucket.begin(); it != bucket.end();) {
      counters_.Add("purge_scanned");
      if (opp_ps.SetMatchKey(it->tuple.field(own.key_index))) {
        it = bucket.erase(it);
        --state_tuples_[side];
        counters_.Add("punct_purged");
      } else {
        ++it;
      }
    }
  }
}

Status WindowPJoin::OnPunctuation(int side, const Punctuation& punct,
                                  TimeMicros arrival) {
  if (!options_.exploit_punctuations) return Status::OK();
  SideState& own = sides_[side];
  PJOIN_RETURN_NOT_OK(own.puncts->Add(punct, arrival).status());
  // This operator scans rather than consumes the set's work queues; drain
  // them so they do not accumulate.
  own.puncts->TakeUnappliedForPurge();
  own.puncts->TakeUnindexed();
  // The punctuation purges the *opposite* state immediately (eager purge)…
  PurgeByPunctuations(1 - side);
  // …and may itself become propagable right away (early propagation): with
  // windows there is no disk portion, so the only gate is the own state.
  return PropagateSide(side);
}

Status WindowPJoin::PropagateSide(int side) {
  SideState& own = sides_[side];
  // Count matches per held punctuation by scanning the own state once.
  own.puncts->ForEach([](PunctEntry& e) {
    e.match_count = 0;
    e.indexed = true;
  });
  for (auto& bucket : own.buckets) {
    for (const TimedEntry& t : bucket) {
      PunctEntry* match = own.puncts->FindFirstMatch(t.tuple);
      if (match != nullptr) ++match->match_count;
    }
  }
  std::vector<Punctuation> released = Propagator::Propagate(own.puncts.get());
  for (const Punctuation& p : released) {
    ++puncts_emitted_;
    counters_.Add("puncts_propagated");
    if (on_punct_) {
      on_punct_(LiftToJoinOutput(side, p, sides_[0].schema->num_fields(),
                                 sides_[1].schema->num_fields(),
                                 sides_[0].key_index, sides_[1].key_index));
    }
  }
  return Status::OK();
}

Status WindowPJoin::Finish() {
  PJOIN_RETURN_NOT_OK(PropagateSide(0));
  return PropagateSide(1);
}

void WindowPJoin::EmitResult(const Tuple& left, const Tuple& right) {
  ++results_emitted_;
  if (on_result_) on_result_(Tuple::Concat(left, right, output_schema_));
}

}  // namespace pjoin

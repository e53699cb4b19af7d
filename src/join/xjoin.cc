#include "join/xjoin.h"

#include "obs/trace.h"

namespace pjoin {

XJoin::XJoin(SchemaPtr left_schema, SchemaPtr right_schema,
             JoinOptions options)
    : JoinOperator(std::move(left_schema), std::move(right_schema),
                   std::move(options)) {}

Status XJoin::OnTupleHashed(int side, const Tuple& tuple,
                            uint64_t key_hash) {
  const int64_t tick = NextTick();
  ProbeOppositeMemory(side, tuple, key_hash);
  InsertTuple(side, tuple, tick, key_hash);
  // Memory pressure is resolved by the shared SpillManager (coldness-scored
  // victims); XJoin has no punctuations, so the manager's early-purge rung
  // is a no-op here (no purger is wired).
  return RelocateUntilBelowThreshold();
}

Status XJoin::OnPunctuation(int side, const Punctuation& punct) {
  (void)side;
  (void)punct;
  counters().Add("puncts_ignored");
  return Status::OK();
}

bool XJoin::PickReactiveVictim(int* side, int* partition) const {
  int64_t best = 0;
  bool found = false;
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < state(s).num_partitions(); ++p) {
      const int64_t n = state(s).disk_tuples(p);
      if (n > best) {
        best = n;
        *side = s;
        *partition = p;
        found = true;
      }
    }
  }
  return found && best >= options().runtime.disk_join_activation_threshold;
}

Status XJoin::OnStreamsStalled() {
  int side = 0;
  int partition = 0;
  if (!PickReactiveVictim(&side, &partition)) return Status::OK();
  return ReactivePass(side, partition);
}

Status XJoin::ReactivePass(int side, int partition) {
  TRACE_SPAN("xjoin", "reactive_pass");
  HashState& own = mutable_state(side);
  HashState& opp = mutable_state(1 - side);
  const int64_t pass_tick = NextTick();

  PJOIN_ASSIGN_OR_RETURN(std::vector<TupleEntry> disk,
                         own.ReadDiskPartition(partition));
  const auto& probes_own = own.probe_times(partition);
  const auto& probes_opp = opp.probe_times(partition);
  int64_t compared = 0;
  for (const TupleEntry& d : disk) {
    compared += opp.ForEachMemoryMatch(
        partition, own.KeyOf(d.tuple), d.key_hash, [&](const TupleEntry& m) {
          if (JoinedBefore(d, probes_own, m, probes_opp)) return;
          if (side == 0) {
            EmitResult(d.tuple, m.tuple);
          } else {
            EmitResult(m.tuple, d.tuple);
          }
        });
  }
  counters().Add("disk_comparisons", compared);
  counters().Add("reactive_passes");
  // Everything on this side's disk portion has now met the opposite memory
  // portion as of pass_tick.
  own.RecordProbe(partition, pass_tick);
  return Status::OK();
}

Status XJoin::CleanupPass() {
  TRACE_SPAN("xjoin", "cleanup_pass");
  counters().Add("cleanup_passes");
  const int64_t pass_tick = NextTick();
  HashState& left = mutable_state(0);
  HashState& right = mutable_state(1);
  for (int p = 0; p < left.num_partitions(); ++p) {
    if (left.disk_tuples(p) == 0 && right.disk_tuples(p) == 0) continue;
    PJOIN_ASSIGN_OR_RETURN(std::vector<TupleEntry> disk_l,
                           left.ReadDiskPartition(p));
    PJOIN_ASSIGN_OR_RETURN(std::vector<TupleEntry> disk_r,
                           right.ReadDiskPartition(p));
    const auto& probes_l = left.probe_times(p);
    const auto& probes_r = right.probe_times(p);
    int64_t compared = 0;

    auto try_emit = [&](const TupleEntry& l, const TupleEntry& r) {
      ++compared;
      // Cached hashes filter non-matches before the key comparison.
      if (l.key_hash != r.key_hash ||
          left.KeyOf(l.tuple) != right.KeyOf(r.tuple)) {
        return;
      }
      if (JoinedBefore(l, probes_l, r, probes_r)) return;
      EmitResult(l.tuple, r.tuple);
    };

    // disk(left) x memory(right), probed through the memory index
    for (const TupleEntry& l : disk_l) {
      compared += right.ForEachMemoryMatch(
          p, left.KeyOf(l.tuple), l.key_hash, [&](const TupleEntry& r) {
            if (JoinedBefore(l, probes_l, r, probes_r)) return;
            EmitResult(l.tuple, r.tuple);
          });
    }
    // memory(left) x disk(right)
    for (const TupleEntry& r : disk_r) {
      compared += left.ForEachMemoryMatch(
          p, right.KeyOf(r.tuple), r.key_hash, [&](const TupleEntry& l) {
            if (JoinedBefore(l, probes_l, r, probes_r)) return;
            EmitResult(l.tuple, r.tuple);
          });
    }
    // disk(left) x disk(right)
    for (const TupleEntry& l : disk_l) {
      for (const TupleEntry& r : disk_r) try_emit(l, r);
    }
    counters().Add("disk_comparisons", compared);
    left.RecordProbe(p, pass_tick);
    right.RecordProbe(p, pass_tick);
  }
  return Status::OK();
}

Status XJoin::Finish() { return CleanupPass(); }

}  // namespace pjoin

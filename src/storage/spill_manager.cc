#include "storage/spill_manager.h"

#include <algorithm>

#include "common/macros.h"
#include "join/hash_state.h"
#include "obs/trace.h"

namespace pjoin {

SpillManager::SpillManager(SpillPolicy policy, HashState* left,
                           HashState* right)
    : policy_(policy), states_{left, right} {
  PJOIN_DCHECK(left != nullptr && right != nullptr);
  PJOIN_DCHECK(left->num_partitions() == right->num_partitions());
  cooldown_.assign(2 * static_cast<size_t>(left->num_partitions()), 0);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bytes_spilled_counter_ =
      registry.GetCounter("pjoin_spill_bytes_spilled", "");
  bytes_early_purged_counter_ =
      registry.GetCounter("pjoin_spill_bytes_early_purged", "");
  resident_bytes_hist_ = registry.GetHistogram(
      "pjoin_spill_partition_resident_bytes", "", /*unit_scale=*/1.0);
  quarantined_gauge_ =
      registry.GetGauge("pjoin_spill_quarantined_partitions", "");
  degraded_gauge_ = registry.GetGauge("pjoin_spill_degraded", "");
}

bool SpillManager::OverBudget(int64_t threshold_tuples,
                              int64_t threshold_bytes) const {
  const int64_t tuples =
      states_[0]->memory_tuples() + states_[1]->memory_tuples();
  if (tuples >= threshold_tuples) return true;
  if (threshold_bytes <= 0) return false;
  const int64_t bytes =
      states_[0]->memory_bytes() + states_[1]->memory_bytes();
  return bytes >= threshold_bytes;
}

bool SpillManager::Quarantined(int side, int p) const {
  return cooldown_[static_cast<size_t>(
             side * states_[0]->num_partitions() + p)] > 0;
}

void SpillManager::Quarantine(int side, int p) {
  int& slot = cooldown_[static_cast<size_t>(
      side * states_[0]->num_partitions() + p)];
  // Incremental Add on the 0→nonzero transition (not Set): managers
  // sharing the process-wide gauge cell stay additive.
  if (slot == 0 && policy_.quarantine_cooldown > 0) {
    quarantined_gauge_.Add(1);
  }
  slot = policy_.quarantine_cooldown;
}

void SpillManager::DecayQuarantine() {
  for (int& c : cooldown_) {
    if (c > 0 && --c == 0) quarantined_gauge_.Add(-1);
  }
}

void SpillManager::RecordFailure() {
  ++failures_;
  if (!stats_.degraded && failures_ >= policy_.degrade_failure_threshold) {
    stats_.degraded = true;
    degraded_gauge_.Set(1);
    if (sink_) {
      sink_(Event{EventType::kDegradedMode, /*time=*/0, /*stream=*/-1,
                  "spill-manager: falling back to global-threshold mode "
                  "after " +
                      std::to_string(failures_) + " storage failures"});
    }
  }
}

SpillManager::Candidate SpillManager::PickVictim(int64_t now_tick) const {
  Candidate best;
  const bool adaptive = effective_mode() == SpillMode::kAdaptive;
  double best_score = 0.0;
  for (int side = 0; side < 2; ++side) {
    const HashState& state = *states_[side];
    for (int p = 0; p < state.num_partitions(); ++p) {
      const int64_t tuples = state.PartitionMemoryTuples(p);
      if (tuples <= 0 || Quarantined(side, p)) continue;
      double score;
      if (adaptive) {
        const int64_t bytes = state.PartitionMemoryBytes(p);
        const int64_t age =
            std::max<int64_t>(0, now_tick - state.PartitionLastAccessTick(p));
        score = static_cast<double>(bytes) * (1.0 + static_cast<double>(age));
      } else {
        // The paper's rule: largest memory portion by tuple count.
        score = static_cast<double>(tuples);
      }
      if (score > best_score) {
        best_score = score;
        best = Candidate{side, p, tuples};
      }
    }
  }
  return best;
}

Status SpillManager::EnsureWithinBudget(
    int64_t threshold_tuples, int64_t threshold_bytes, int64_t now_tick,
    const std::function<int64_t()>& next_tick) {
  if (!OverBudget(threshold_tuples, threshold_bytes)) return Status::OK();
  // The join's relocation span opens only when there is something to
  // relocate: XJoin asks after every tuple.
  TRACE_SPAN("join", "relocate");
  DecayQuarantine();
  // Hysteresis targets: overshoot below the trigger thresholds so the
  // caller's Monitor observes below-threshold samples and its kStateFull
  // latch re-arms (see SpillPolicy::low_water_fraction).
  double fraction = policy_.low_water_fraction;
  if (!(fraction > 0.0) || fraction > 1.0) fraction = 1.0;
  const auto scale_down = [fraction](int64_t v) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(v) * fraction));
  };
  const int64_t low_tuples = scale_down(threshold_tuples);
  const int64_t low_bytes = threshold_bytes > 0 ? scale_down(threshold_bytes)
                                                : threshold_bytes;
  bool overran = false;
  while (OverBudget(low_tuples, low_bytes)) {
    const Candidate victim = PickVictim(now_tick);
    if (victim.side < 0) {
      // Everything spillable is empty or quarantined: the cap becomes
      // best-effort rather than a join failure.
      overran = true;
      break;
    }
    HashState& state = *states_[victim.side];
    if (effective_mode() == SpillMode::kAdaptive && purger_) {
      // Dead state never has to touch disk: purge the victim in place
      // first, and skip the write entirely when that already freed enough.
      const EarlyPurgeOutcome freed = purger_(victim.side, victim.partition);
      if (freed.tuples > 0) {
        ++stats_.early_purge_runs;
        stats_.tuples_early_purged += freed.tuples;
        stats_.bytes_early_purged += freed.bytes;
        bytes_early_purged_counter_.Add(freed.bytes);
        if (!OverBudget(low_tuples, low_bytes)) break;
        if (state.PartitionMemoryTuples(victim.partition) <= 0) continue;
      }
    }
    const int64_t resident_bytes =
        state.PartitionMemoryBytes(victim.partition);
    const int64_t resident_tuples =
        state.PartitionMemoryTuples(victim.partition);
    resident_bytes_hist_.Observe(resident_bytes);
    Status st = state.FlushPartitionToDisk(victim.partition, next_tick());
    if (!st.ok()) {
      // A failed flush keeps its unpersisted tuples in memory (HashState
      // drops exactly the durable prefix); quarantine the partition and try
      // the next victim instead of failing the join.
      ++stats_.spill_failures;
      Quarantine(victim.side, victim.partition);
      RecordFailure();
      continue;
    }
    ++stats_.spills;
    stats_.tuples_spilled += resident_tuples;
    stats_.bytes_spilled += resident_bytes;
    bytes_spilled_counter_.Add(resident_bytes);
  }
  if (overran) ++stats_.budget_overruns;
  return Status::OK();
}

}  // namespace pjoin

// SpillManager: skew-robust, per-partition spill decisions replacing the
// paper's global-threshold whole-portion relocation (§3.3 / XJoin).
//
// The paper flushes the single largest memory partition whenever the global
// memory threshold is crossed. That collapses under key skew: one hot
// partition keeps blowing the budget while cold partitions are spilled and
// re-read for nothing ("Design Trade-offs for a Robust Dynamic Hybrid Hash
// Join", PAPERS.md). The manager instead:
//
//   1. *Early purge before the write* (PJoin only): consults the opposite
//      stream's punctuation set and drops dead tuples of the victim
//      partition in place — state that never has to touch disk at all.
//   2. Scores partitions by resident bytes weighted by probe coldness
//      (bytes * (1 + ticks since the last probe)) and spills the
//      coldest/largest first, so hot build sides stay resident.
//
// A spilled partition stays one disk unit: relocation appends to it, and
// every disk reader (PJoin's disk join, XJoin's reactive and cleanup
// stages) reads it back whole, so sub-partitioning it would bound nothing.
//
// Robustness ladder (docs/ROBUSTNESS.md): a partition whose spill fails is
// quarantined for a cooldown and the next-best victim is tried; repeated
// failures flip the manager into the paper's global-threshold mode for the
// rest of the run (a DegradedMode event is emitted); when nothing at all can
// be spilled the memory cap degrades to best-effort (budget_overruns) rather
// than failing the join. IO errors surfaced by the underlying store remain
// recoverable via RecoveringSpillStore exactly as before — the manager only
// decides *what* to spill, never bypasses the store stack.

#ifndef PJOIN_STORAGE_SPILL_MANAGER_H_
#define PJOIN_STORAGE_SPILL_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/event.h"
#include "obs/metrics_registry.h"

namespace pjoin {

/// Victim-selection policy of the SpillManager.
enum class SpillMode {
  /// Per-partition decisions: early purge and coldness-weighted victims
  /// (the default).
  kAdaptive,
  /// The paper's behavior: flush the largest memory partition, nothing else.
  /// Also the fallback the manager degrades into after repeated failures.
  kGlobalThreshold,
};

/// Knobs of one SpillManager. Defaults match production; tests shrink the
/// bounds to force every path.
struct SpillPolicy {
  SpillMode mode = SpillMode::kAdaptive;
  /// Cumulative spill failures before falling back to kGlobalThreshold
  /// mode for the rest of the run.
  int degrade_failure_threshold = 3;
  /// EnsureWithinBudget calls a failed partition sits out before it becomes
  /// a spill candidate again.
  int quarantine_cooldown = 8;
  /// Hysteresis: once over budget, spill down to this fraction of the
  /// threshold instead of stopping just barely under it. Fine-grained
  /// per-partition victims can otherwise free so little that the very next
  /// arrival re-crosses the threshold before the Monitor observes a
  /// below-threshold sample, so its kStateFull latch never re-arms.
  double low_water_fraction = 0.875;
};

/// Decision counters of one manager (mirrored into the process-wide metrics
/// registry; see docs/OBSERVABILITY.md).
struct SpillDecisionStats {
  int64_t spills = 0;
  int64_t tuples_spilled = 0;
  int64_t bytes_spilled = 0;
  int64_t early_purge_runs = 0;
  int64_t tuples_early_purged = 0;
  int64_t bytes_early_purged = 0;
  int64_t spill_failures = 0;
  /// EnsureWithinBudget calls that returned while still over budget because
  /// every candidate was quarantined or empty (best-effort cap).
  int64_t budget_overruns = 0;
  /// True once the manager fell back to global-threshold mode.
  bool degraded = false;

  bool operator==(const SpillDecisionStats&) const = default;
};

class HashState;

/// Outcome of one early-purge pass over a partition.
struct EarlyPurgeOutcome {
  int64_t tuples = 0;
  int64_t bytes = 0;
};

class SpillManager {
 public:
  using EventSink = std::function<void(const Event&)>;
  /// Purges punctuation-dead tuples of state `side`'s partition `p` in
  /// place and reports what was freed. Must not touch disk.
  using EarlyPurger = std::function<EarlyPurgeOutcome(int side, int p)>;

  /// The join's two states; `left` / `right` must outlive the manager.
  SpillManager(SpillPolicy policy, HashState* left, HashState* right);

  void set_early_purger(EarlyPurger purger) { purger_ = std::move(purger); }
  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  /// Spills (after early purge, in adaptive mode) until the combined
  /// in-memory state drops below both thresholds, consuming dts ticks from
  /// `next_tick`. `now_tick` is the current event tick, used for coldness
  /// scoring. Returns OK even when the budget cannot be met (see
  /// SpillDecisionStats::budget_overruns); non-OK only for unrecoverable
  /// storage errors outside the manager's own retry ladder.
  [[nodiscard]] Status EnsureWithinBudget(
      int64_t threshold_tuples, int64_t threshold_bytes, int64_t now_tick,
      const std::function<int64_t()>& next_tick);

  const SpillDecisionStats& stats() const { return stats_; }
  bool degraded() const { return stats_.degraded; }
  /// kGlobalThreshold when configured so *or* after degradation.
  SpillMode effective_mode() const {
    return stats_.degraded ? SpillMode::kGlobalThreshold : policy_.mode;
  }

 private:
  struct Candidate {
    int side = -1;
    int partition = -1;
    int64_t tuples = 0;
  };

  bool OverBudget(int64_t threshold_tuples, int64_t threshold_bytes) const;
  Candidate PickVictim(int64_t now_tick) const;
  bool Quarantined(int side, int p) const;
  void Quarantine(int side, int p);
  void DecayQuarantine();
  void RecordFailure();

  SpillPolicy policy_;
  HashState* states_[2];
  EarlyPurger purger_;
  EventSink sink_;
  SpillDecisionStats stats_;
  int failures_ = 0;
  /// Remaining cooldown per (side, partition); index = side * P + p.
  std::vector<int> cooldown_;

  // Process-wide exposition (shared cells across managers; see /metrics).
  obs::Counter bytes_spilled_counter_;
  obs::Counter bytes_early_purged_counter_;
  obs::Histogram resident_bytes_hist_;
  /// pjoin_spill_quarantined_partitions: (side, partition) slots in
  /// quarantine cooldown, maintained with Add(±1) on 0↔nonzero cooldown
  /// transitions, so managers sharing the cell stay additive;
  /// pjoin_spill_degraded is sticky (any manager degrading, or any
  /// RecoveringSpillStore falling back, sets it).
  obs::Gauge quarantined_gauge_;
  obs::Gauge degraded_gauge_;
};

}  // namespace pjoin

#endif  // PJOIN_STORAGE_SPILL_MANAGER_H_

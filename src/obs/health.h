// Stall diagnosis read from the metrics registry (docs/OBSERVABILITY.md,
// "Diagnosing a stalled join").
//
// Each parallel shard worker keeps one progress number: the router dispatch
// time of the batch it is working on, 0 while its ring is empty (gauge
// pjoin_shard_dispatch_us{pipeline=parallel,shard=N}). A shard consumes its
// ring in FIFO order, so now minus that time is how far the shard's
// frontier trails the router. EvaluateHealth classifies the pipeline from
// one registry snapshot:
//
//   OK        every shard within kDegradedThresholdUs of the router
//   DEGRADED  a shard moderately behind, or spill storage degraded
//   STALLED   a shard kStallThresholdUs or more behind the router
//
// A STALLED verdict carries a root-cause chain built from the same
// snapshot — "shard 2 frontier stalled 4.2s behind router; ring
// edge=shard_2 occupancy 31; ring edge=out_2 occupancy 64; 3 punct release
// rounds pending at merger". Nothing polls: /healthz evaluates a fresh
// snapshot per request, so a probe observes recovery the moment the shard
// catches up.

#ifndef PJOIN_OBS_HEALTH_H_
#define PJOIN_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/metrics_registry.h"

namespace pjoin {
namespace obs {

enum class HealthStatus {
  kOk = 0,
  kDegraded = 1,
  kStalled = 2,
};

const char* HealthStatusName(HealthStatus status);

/// Shard lag at which the pipeline is STALLED.
inline constexpr TimeMicros kStallThresholdUs = kMicrosPerSecond;
/// Shard lag at which the pipeline is DEGRADED.
inline constexpr TimeMicros kDegradedThresholdUs = 250 * kMicrosPerMilli;

/// One shard's progress at an evaluation.
struct ShardFrontier {
  int shard = 0;
  /// Router dispatch time of the batch the shard is working on; 0 = idle.
  TimeMicros dispatch_us = 0;
  /// How far the shard trails the router; 0 when idle.
  TimeMicros lag_us = 0;
};

/// One classification of a registry snapshot. `causes` is the root-cause
/// chain, most specific first.
struct HealthReport {
  HealthStatus status = HealthStatus::kOk;
  TimeMicros now_us = 0;
  /// Shards at or past the stall threshold.
  int64_t stalled_frontiers = 0;
  /// Moderately lagging shards plus degraded-mode signals (spill fallback).
  int64_t degraded_signals = 0;
  /// Punctuations PJoin shards received since their last purge
  /// (pjoin_puncts_since_purge; informational: lazy purge makes a small
  /// pending set normal).
  int64_t unfired_purges = 0;
  std::vector<std::string> causes;
  /// Every shard that published a dispatch gauge, by shard.
  std::vector<ShardFrontier> frontiers;

  /// {"status": "ok"|"degraded"|"stalled", "now_us": N,
  ///  "stalled_frontiers": N, "degraded_signals": N, "unfired_purges": N,
  ///  "causes": [...],
  ///  "frontiers": [{"shard": N, "dispatch_us": N, "lag_us": N}, ...]}
  std::string ToJson() const;
};

/// Classifies `snapshot` (a MetricsRegistry::Snapshot()) at `now_us`
/// (TraceNowMicros() for a live verdict; tests pass synthetic times).
/// A pure function: it reads nothing else and writes nothing.
[[nodiscard]] HealthReport EvaluateHealth(
    const std::vector<MetricSample>& snapshot, TimeMicros now_us);

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_HEALTH_H_

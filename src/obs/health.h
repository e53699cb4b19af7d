// HealthMonitor: stall diagnosis read from the metrics registry
// (docs/OBSERVABILITY.md, "Diagnosing a stalled join").
//
// Each parallel shard worker keeps one progress number: the router dispatch
// time of the batch it is working on, 0 while its ring is empty (gauge
// pjoin_shard_dispatch_us{pipeline=parallel,shard=N}). A shard consumes its
// ring in FIFO order, so now minus that time is how far the shard's
// frontier trails the router. Every evaluation takes one registry snapshot
// and classifies the pipeline:
//
//   OK        every shard within degraded_threshold of the router
//   DEGRADED  a shard moderately behind, or spill storage degraded
//   STALLED   a shard stalled_threshold or more behind the router
//
// A STALLED verdict carries a root-cause chain built from the same
// snapshot — "shard 2 frontier stalled 4.2s behind router; ring
// edge=shard_2 occupancy 31; ring edge=out_2 occupancy 64; 3 punct release
// rounds pending at merger" — and a watchdog thread edge-triggers it into
// the stall history (/debug/stalls), pjoin_stalls_diagnosed_total and a
// stall_diagnosed trace instant. The watchdog also feeds
// pjoin_frontier_lag_seconds{shard}.
//
// /healthz does NOT read a cached verdict: it calls EvaluateNow(), so a
// probe observes recovery the moment the shard catches up instead of one
// watchdog period later.

#ifndef PJOIN_OBS_HEALTH_H_
#define PJOIN_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pjoin {
namespace obs {

enum class HealthStatus {
  kOk = 0,
  kDegraded = 1,
  kStalled = 2,
};

const char* HealthStatusName(HealthStatus status);

/// One shard's progress at an evaluation.
struct ShardFrontier {
  int shard = 0;
  /// Router dispatch time of the batch the shard is working on; 0 = idle.
  TimeMicros dispatch_us = 0;
  /// How far the shard trails the router; 0 when idle.
  TimeMicros lag_us = 0;
};

/// One classification pass over a registry snapshot. `causes` is the
/// root-cause chain, most specific first.
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

struct HealthOptions {
  /// Watchdog sampling period.
  TimeMicros period_us = 100 * kMicrosPerMilli;
  /// Shard lag at which the pipeline is STALLED.
  TimeMicros stall_threshold_us = kMicrosPerSecond;
  /// Shard lag at which the pipeline is DEGRADED.
  TimeMicros degraded_threshold_us = 250 * kMicrosPerMilli;
};

/// Process-global monitor, like Tracer / MetricsRegistry: the watchdog,
/// /healthz and /debug/stalls all read one well-known instance.
class HealthMonitor {
 public:
  static HealthMonitor& Global();
  PJOIN_DISALLOW_COPY_AND_MOVE(HealthMonitor);

  /// One synchronous classification pass with no side effects on history
  /// or metrics, using the thresholds last passed to Configure /
  /// Start (defaults otherwise). `now_us` = 0 means "now" (TraceNowMicros);
  /// tests pass synthetic times. This is what /healthz serves.
  [[nodiscard]] HealthReport EvaluateNow(TimeMicros now_us = 0) const
      EXCLUDES(mu_);

  /// Sets the thresholds EvaluateNow and the watchdog use, without
  /// starting the watchdog.
  void Configure(const HealthOptions& options) EXCLUDES(mu_);

  /// Starts the watchdog thread with `options`. No-op when already
  /// running.
  void Start(HealthOptions options = {}) EXCLUDES(mu_);
  /// Stops and joins the watchdog. Safe when not running.
  void Stop() EXCLUDES(mu_);
  [[nodiscard]] bool running() const EXCLUDES(mu_);

  /// Reports recorded at OK/DEGRADED -> STALLED transitions (newest last,
  /// bounded at kMaxStallHistory).
  [[nodiscard]] std::vector<HealthReport> StallHistory() const
      EXCLUDES(history_mu_);

  /// Human-readable /debug/stalls body: current verdict + stall history.
  [[nodiscard]] std::string RenderDebugStalls() const;

  /// Stops the watchdog and clears history. Test-only.
  void ResetForTest();

  static constexpr size_t kMaxStallHistory = 32;

 private:
  HealthMonitor() = default;

  /// A watchdog pass: EvaluateNow + the lag histogram export + the
  /// edge-triggered stall recording.
  void RecordPass();
  void WatchdogLoop(HealthOptions options);

  mutable Mutex mu_;
  CondVar cv_;
  HealthOptions options_ GUARDED_BY(mu_);
  bool stop_requested_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  std::thread thread_ GUARDED_BY(mu_);

  mutable Mutex history_mu_;
  std::vector<HealthReport> history_ GUARDED_BY(history_mu_);
  HealthStatus last_status_ GUARDED_BY(history_mu_) = HealthStatus::kOk;
};

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_HEALTH_H_

// MetricsRegistry: one process-wide, lock-sharded home for counters and
// gauges (docs/OBSERVABILITY.md).
//
// The pre-existing per-operator CounterSets stay where they are (they are
// part of each operator's introspection API); the registry is the layer
// *above* them: subsystems that previously kept ad-hoc tallies (stream
// buffers, spill stores, the parallel pipeline) register named, labeled
// handles here, and one ToJson() call snapshots everything a run touched in
// a stable machine-readable form.
//
// Design for the hot path: a handle resolves (name, labels) -> metric once,
// under one shard mutex; after that every Add/Set is a single relaxed
// atomic RMW/store on the metric cell — no lock, no map lookup. Handles are
// trivially copyable values; a default-constructed handle is inert (all
// operations no-op), so instrumentation can be optional without null checks
// at every call site.
//
// Registration is lock-sharded: (name, labels) hashes to one of kShards
// independent {Mutex, map} pairs, so concurrent registration from shard
// workers does not serialize on a single registry lock.

#ifndef PJOIN_OBS_METRICS_REGISTRY_H_
#define PJOIN_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace pjoin {
namespace obs {

enum class MetricKind : int8_t {
  /// Monotone sum (Add only).
  kCounter,
  /// Last-write-wins level (Set / Add).
  kGauge,
  /// Power-of-two bucketed distribution (Observe only).
  kHistogram,
};

/// Atomic power-of-two bucket array backing a registry histogram: the
/// thread-safe sibling of common/metrics.h::Histogram (same BucketFor law,
/// relaxed atomics instead of plain ints). Bucket 0 holds v <= 0; bucket
/// b >= 1 holds values in [2^(b-1), 2^b - 1].
struct HistogramData {
  static constexpr int kNumBuckets = 64;

  std::atomic<int64_t> buckets[kNumBuckets] = {};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> count{0};

  static int BucketFor(int64_t v) {
    if (v <= 0) return 0;
    int b = 0;
    while (v > 0) {
      v >>= 1;
      ++b;
    }
    return b < kNumBuckets ? b : kNumBuckets - 1;
  }
};

/// One registered metric cell. Owned by the registry; handles point at it.
struct MetricCell {
  std::string name;
  std::string labels;
  MetricKind kind = MetricKind::kCounter;
  std::atomic<int64_t> value{0};
  /// Histogram-only. Observations are recorded as raw int64 values (e.g.
  /// microseconds); exporters multiply bucket bounds and sums by
  /// `unit_scale` (e.g. 1e-6 for a `_seconds` exposition).
  double unit_scale = 1.0;
  std::unique_ptr<HistogramData> hist;
};

/// Cumulative counter handle. Copyable; inert when default-constructed.
class Counter {
 public:
  Counter() = default;

  void Add(int64_t delta = 1) {
    if (cell_ != nullptr) {
      cell_->value.fetch_add(delta);
    }
  }
  [[nodiscard]] int64_t Get() const {
    return cell_ == nullptr ? 0 : cell_->value.load();
  }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

/// Point-in-time level handle (queue depth, state size). Copyable; inert
/// when default-constructed.
class Gauge {
 public:
  Gauge() = default;

  void Set(int64_t value) {
    if (cell_ != nullptr) {
      cell_->value.store(value);
    }
  }
  void Add(int64_t delta) {
    if (cell_ != nullptr) {
      cell_->value.fetch_add(delta);
    }
  }
  [[nodiscard]] int64_t Get() const {
    return cell_ == nullptr ? 0 : cell_->value.load();
  }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

/// Distribution handle (latencies, sizes). Copyable; inert when
/// default-constructed. Observe() is three sequentially consistent atomic
/// RMWs (bucket, sum, count) plus a short bucket computation, so a hot path
/// that observes many values at one reading batches them through the
/// weighted form.
class Histogram {
 public:
  Histogram() = default;

  /// Records `n` observations of `value` at the cost of one.
  void Observe(int64_t value, int64_t n = 1) {
    if (cell_ == nullptr) return;
    HistogramData& h = *cell_->hist;
    h.buckets[HistogramData::BucketFor(value)].fetch_add(n);
    h.sum.fetch_add(value * n);
    h.count.fetch_add(n);
  }
  [[nodiscard]] int64_t Count() const {
    return cell_ == nullptr
               ? 0
               : cell_->hist->count.load();
  }
  [[nodiscard]] int64_t Sum() const {
    return cell_ == nullptr
               ? 0
               : cell_->hist->sum.load();
  }
  [[nodiscard]] bool bound() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(MetricCell* cell) : cell_(cell) {}
  MetricCell* cell_ = nullptr;
};

/// A consistent-enough copy of one metric for snapshots/export.
struct MetricSample {
  std::string name;
  std::string labels;
  MetricKind kind;
  /// Counter/gauge value; for histograms, the observation count.
  int64_t value;
  /// Histogram-only: raw-unit sum and per-bucket counts (empty otherwise).
  int64_t sum = 0;
  double unit_scale = 1.0;
  std::vector<int64_t> buckets;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  PJOIN_DISALLOW_COPY_AND_MOVE(MetricsRegistry);

  /// Returns the handle for (name, labels), registering the metric on first
  /// use. The same (name, labels) pair always resolves to the same cell —
  /// two call sites asking for "spill.pages_written"/"store=sim" share
  /// one value, while a different labels string is a distinct metric.
  /// Asking for an existing metric with a different kind is a checked
  /// programming error. A name rejected by obs::IsValidMetricName() logs
  /// once and returns an inert handle (bound() == false) instead of
  /// registering junk an exporter could not emit.
  Counter GetCounter(std::string_view name, std::string_view labels = "");
  Gauge GetGauge(std::string_view name, std::string_view labels = "");

  /// `unit_scale` converts raw observations to exposition units (1e-6 when
  /// observing microseconds under a `_seconds` name). Fixed at first
  /// registration.
  Histogram GetHistogram(std::string_view name, std::string_view labels = "",
                         double unit_scale = 1.0);

  /// All registered metrics, sorted by (name, labels).
  [[nodiscard]] std::vector<MetricSample> Snapshot() const;

  /// Stable machine-readable snapshot:
  ///   {"metrics": [{"name": ..., "labels": ..., "kind": "counter"|"gauge",
  ///                 "value": N}, ...]}
  /// Histogram entries carry "count", "sum", "unit_scale" and "buckets"
  /// instead of "value". Sorted by (name, labels) so diffs and goldens are
  /// deterministic.
  [[nodiscard]] std::string ToJson() const;

  /// Drops every registered metric. Test-only: outstanding handles dangle.
  void ResetForTest();

 private:
  static constexpr int kShards = 8;

  struct Shard {
    mutable Mutex mu;
    // std::map: stable element addresses, deterministic iteration.
    std::map<std::string, std::unique_ptr<MetricCell>> cells GUARDED_BY(mu);
  };

  MetricCell* GetCell(std::string_view name, std::string_view labels,
                      MetricKind kind, double unit_scale = 1.0);

  Shard shards_[kShards];
};

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_METRICS_REGISTRY_H_

// Lightweight metrics: named counters, time-series recording, and a fixed
// bucket histogram. These back both the test assertions ("purge ran N times")
// and the figure-reproduction benches (state size over time).

#ifndef PJOIN_COMMON_METRICS_H_
#define PJOIN_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"

namespace pjoin {

/// A (time, value) sample of a gauge such as join-state size.
struct Sample {
  TimeMicros time;
  int64_t value;
};

/// Records samples of one gauge over (virtual or wall) time, optionally
/// thinned to at most one sample per `min_interval` of time.
class TimeSeries {
 public:
  /// `min_interval` == 0 records every sample.
  explicit TimeSeries(TimeMicros min_interval = 0)
      : min_interval_(min_interval) {}

  /// Appends a sample unless it falls inside the thinning interval, in which
  /// case it is held as the pending tail (replacing any previous one) until
  /// a sample clears the interval or Flush() is called.
  void Record(TimeMicros time, int64_t value);

  /// Appends the pending thinned sample, if any. Call when the stream ends:
  /// without it the series' final value is whatever sample last cleared the
  /// thinning interval, and LastValue()/Resample() misreport the end state.
  void Flush();

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  int64_t MaxValue() const;
  double MeanValue() const;
  int64_t LastValue() const;

  /// Re-buckets the series onto a uniform grid of `buckets` intervals over
  /// [0, horizon], carrying the last value forward; useful for printing
  /// figure rows of equal length.
  std::vector<Sample> Resample(TimeMicros horizon, int buckets) const;

 private:
  TimeMicros min_interval_;
  std::vector<Sample> samples_;
  Sample pending_{0, 0};  // newest thinned sample, valid iff has_pending_
  bool has_pending_ = false;
};

/// A histogram over int64 values with power-of-two bucket bounds.
class Histogram {
 public:
  Histogram();

  void Add(int64_t value);

  int64_t count() const { return count_; }
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }
  double mean() const;
  /// Approximate quantile (q in [0,1]) from bucket interpolation.
  int64_t Percentile(double q) const;

  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 64;
  static int BucketFor(int64_t value);

  int64_t buckets_[kNumBuckets];
  int64_t count_;
  int64_t sum_;
  int64_t min_;
  int64_t max_;
};

/// A named bag of counters; operators expose one of these for inspection.
class CounterSet {
 public:
  /// Adds `delta` to counter `name`, creating it at zero if absent.
  void Add(const std::string& name, int64_t delta = 1);
  /// Value of counter `name`; 0 if never touched.
  int64_t Get(const std::string& name) const;
  /// Adds every counter of `other` into this set.
  void Merge(const CounterSet& other);
  void Reset();

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  std::string ToString() const;

 private:
  std::map<std::string, int64_t> counters_;
};

}  // namespace pjoin

#endif  // PJOIN_COMMON_METRICS_H_

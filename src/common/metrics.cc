#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/macros.h"

namespace pjoin {

void TimeSeries::Record(TimeMicros time, int64_t value) {
  if (min_interval_ > 0 && !samples_.empty() &&
      time - samples_.back().time < min_interval_) {
    pending_ = Sample{time, value};
    has_pending_ = true;
    return;
  }
  samples_.push_back(Sample{time, value});
  has_pending_ = false;
}

void TimeSeries::Flush() {
  if (!has_pending_) return;
  samples_.push_back(pending_);
  has_pending_ = false;
}

int64_t TimeSeries::MaxValue() const {
  int64_t best = std::numeric_limits<int64_t>::min();
  for (const auto& s : samples_) best = std::max(best, s.value);
  return samples_.empty() ? 0 : best;
}

double TimeSeries::MeanValue() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += static_cast<double>(s.value);
  return sum / static_cast<double>(samples_.size());
}

int64_t TimeSeries::LastValue() const {
  return samples_.empty() ? 0 : samples_.back().value;
}

std::vector<Sample> TimeSeries::Resample(TimeMicros horizon,
                                         int buckets) const {
  PJOIN_DCHECK(buckets > 0);
  PJOIN_DCHECK(horizon > 0);
  std::vector<Sample> out;
  out.reserve(static_cast<size_t>(buckets));
  size_t idx = 0;
  int64_t last = 0;
  for (int b = 1; b <= buckets; ++b) {
    const TimeMicros t = horizon * b / buckets;
    while (idx < samples_.size() && samples_[idx].time <= t) {
      last = samples_[idx].value;
      ++idx;
    }
    out.push_back(Sample{t, last});
  }
  return out;
}

Histogram::Histogram()
    : buckets_{},
      count_(0),
      sum_(0),
      min_(std::numeric_limits<int64_t>::max()),
      max_(std::numeric_limits<int64_t>::min()) {}

int Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;
  int b = 1;
  uint64_t v = static_cast<uint64_t>(value);
  while (v >>= 1) ++b;
  return std::min(b, kNumBuckets - 1);
}

void Histogram::Add(int64_t value) {
  ++buckets_[BucketFor(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t n = buckets_[b];
    if (n == 0) continue;
    if (static_cast<double>(seen) + static_cast<double>(n) > target) {
      if (b == 0) return 0;  // bucket 0 holds values <= 0
      // Interpolate within bucket b's range [2^(b-1), 2^b - 1] by the
      // quantile's position among the bucket's n values, then clamp to the
      // observed [min_, max_] so sparse tail buckets cannot report a value
      // the histogram never saw.
      const double lo = std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b) - 1.0;
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(n);
      double value = lo + frac * (hi - lo);
      value = std::min(value, static_cast<double>(max_));
      value = std::max(value, static_cast<double>(min_));
      return static_cast<int64_t>(std::llround(value));
    }
    seen += n;
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.1f min=%lld p50=%lld p95=%lld max=%lld",
                static_cast<long long>(count_), mean(),
                static_cast<long long>(count_ == 0 ? 0 : min_),
                static_cast<long long>(Percentile(0.5)),
                static_cast<long long>(Percentile(0.95)),
                static_cast<long long>(count_ == 0 ? 0 : max_));
  return std::string(buf);
}

void CounterSet::Add(const std::string& name, int64_t delta) {
  counters_[name] += delta;
}

int64_t CounterSet::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void CounterSet::Merge(const CounterSet& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
}

void CounterSet::Reset() { counters_.clear(); }

std::string CounterSet::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << " ";
    first = false;
    os << name << "=" << value;
  }
  return os.str();
}

}  // namespace pjoin

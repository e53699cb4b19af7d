// FaultInjector: the deterministic randomness and bookkeeping shared by all
// fault decorators of one chaos run.
//
// All decorators built from one FaultPlan share one injector, so the
// injected-fault counters aggregate across stores and streams and the whole
// run replays bit-identically from the plan's seed. Thread-safe: the
// decorated stores and sources may live on different pipeline threads, so
// the random stream and the counters are GUARDED_BY one mutex.

#ifndef PJOIN_FAULT_FAULT_INJECTOR_H_
#define PJOIN_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace pjoin {

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  /// Deterministic Bernoulli trial; rates <= 0 never fire.
  [[nodiscard]] bool Roll(double probability) EXCLUDES(mu_) {
    if (probability <= 0.0) return false;
    MutexLock lock(mu_);
    return rng_.NextBool(probability);
  }

  /// Uniform integer in [lo, hi] from the shared deterministic stream.
  [[nodiscard]] int64_t UniformInt(int64_t lo, int64_t hi) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rng_.NextInt(lo, hi);
  }

  /// Records one injected fault under `name` (e.g. "io_transient_write").
  void Count(const std::string& name, int64_t delta = 1) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    counters_.Add(name, delta);
  }

  [[nodiscard]] int64_t Get(const std::string& name) const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_.Get(name);
  }

  /// Snapshot of every injected-fault counter.
  [[nodiscard]] CounterSet SnapshotCounters() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_;
  }

 private:
  // tests/thread_safety_negative.cc probes the GUARDED_BY annotations.
  friend class ThreadSafetyNegativeProbe;

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  CounterSet counters_ GUARDED_BY(mu_);
};

}  // namespace pjoin

#endif  // PJOIN_FAULT_FAULT_INJECTOR_H_

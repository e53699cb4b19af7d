// Compile-only probes for the Clang -Wthread-safety annotations.
//
// This TU is never linked into a test binary. CMake registers one ctest
// entry per PROBE_CASE that invokes the compiler with
//   -Wthread-safety -Werror -fsyntax-only -DPROBE_CASE=<n>
// (Clang only). Case 0 is the positive control: correctly-locked access
// must compile cleanly. Every other case commits a locking mistake that
// the analysis must reject, and its ctest entry is marked WILL_FAIL —
// so removing a GUARDED_BY/REQUIRES annotation from RecoveringSpillStore
// or FaultInjector makes the corresponding probe compile, which fails
// the suite. That is the point: the annotations themselves are under
// test.
//
// ThreadSafetyNegativeProbe is a friend of the probed classes so the
// probes can name private guarded members directly; friendship does not
// weaken the analysis.

#ifndef PROBE_CASE
#error "compile with -DPROBE_CASE=<n>"
#endif

#include "fault/fault_injector.h"
#include "storage/recovering_spill_store.h"

namespace pjoin {

class ThreadSafetyNegativeProbe {
 public:
  static void ProbeStore(RecoveringSpillStore& store);
  static void ProbeInjector(FaultInjector& injector);
};

void ThreadSafetyNegativeProbe::ProbeStore(RecoveringSpillStore& store) {
#if PROBE_CASE == 0
  // Positive control: hold mu_ for every guarded access.
  MutexLock lock(store.mu_);
  if (store.degraded_) store.primary_ = nullptr;
  [[maybe_unused]] SpillStore* active = store.ActiveLocked();
#elif PROBE_CASE == 1
  // Reading a GUARDED_BY(mu_) member without the lock.
  [[maybe_unused]] const bool degraded = store.degraded_;
#elif PROBE_CASE == 2
  // Writing a GUARDED_BY(mu_) member without the lock.
  store.primary_ = nullptr;
#elif PROBE_CASE == 3
  // Calling a REQUIRES(mu_) method without holding mu_.
  [[maybe_unused]] SpillStore* active = store.ActiveLocked();
#endif
}

void ThreadSafetyNegativeProbe::ProbeInjector(FaultInjector& injector) {
#if PROBE_CASE == 0
  // Positive control: the injector's counters are touched under mu_.
  MutexLock lock(injector.mu_);
  injector.counters_.Add("probe");
#elif PROBE_CASE == 4
  // Unguarded mutation of the guarded counter set.
  injector.counters_.Add("probe");
#elif PROBE_CASE == 5
  // Unguarded read of the guarded counter set.
  [[maybe_unused]] const int64_t v = injector.counters_.Get("probe");
#endif
}

}  // namespace pjoin

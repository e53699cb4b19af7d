// RecoveringSpillStore: a SpillStore decorator that makes any primary store
// survive transient I/O errors and degrade gracefully on permanent ones.
//
// The degradation ladder (docs/ROBUSTNESS.md):
//   1. retry    — every failed operation is retried up to max_retries times
//                 behind an exponential backoff that is accounted
//                 (RecoveryStats::backoff_micros), never slept;
//   2. resume   — a failed AppendBatch is resumed from the partition's
//                 durable record count, so short writes never duplicate or
//                 lose records across retries;
//   3. fallback — when retries are exhausted the store migrates every
//                 readable partition into an in-memory SimulatedDisk and
//                 continues there, emitting a DegradedModeEvent and setting
//                 the sticky pjoin_spill_degraded gauge /healthz reads.
// Only when data is genuinely unreadable (permanent read failure of
// unmigrated pages) does an operation return an error: correctness is never
// silently traded for availability.

#ifndef PJOIN_STORAGE_RECOVERING_SPILL_STORE_H_
#define PJOIN_STORAGE_RECOVERING_SPILL_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/event.h"
#include "storage/spill_store.h"

namespace pjoin {

struct RecoveryOptions {
  /// Retries per failed operation before declaring the failure permanent.
  int max_retries = 3;
};

struct RecoveryStats {
  int64_t io_errors = 0;          // failed operations observed (pre-retry)
  int64_t retries = 0;            // retry attempts issued
  int64_t recovered_ops = 0;      // operations that succeeded after >=1 retry
  int64_t backoff_micros = 0;     // total exponential backoff accounted
  int64_t fallbacks = 0;          // primary -> fallback switches (0 or 1)
  int64_t records_migrated = 0;   // records copied into the fallback store
  int64_t records_lost = 0;       // records unreadable during migration
};

class RecoveringSpillStore : public SpillStore {
 public:
  /// Receives IoErrorEvent / DegradedModeEvent as they happen (optional).
  using EventSink = std::function<void(const Event&)>;

  explicit RecoveringSpillStore(std::unique_ptr<SpillStore> primary,
                                RecoveryOptions options = {},
                                EventSink sink = nullptr);

  Status AppendBatch(int partition,
                     const std::vector<std::string>& records) override
      EXCLUDES(mu_);
  Result<std::vector<std::string>> ReadPartition(int partition) override
      EXCLUDES(mu_);
  Status ClearPartition(int partition) override EXCLUDES(mu_);
  [[nodiscard]] int64_t PartitionRecordCount(int partition) const override
      EXCLUDES(mu_);
  [[nodiscard]] int64_t TotalRecordCount() const override EXCLUDES(mu_);
  [[nodiscard]] std::vector<int> NonEmptyPartitions() const override
      EXCLUDES(mu_);
  const IoStats& io_stats() const override EXCLUDES(mu_);

  /// True once the store runs on the fallback.
  [[nodiscard]] bool degraded() const EXCLUDES(mu_);
  /// Consistent snapshot of the recovery counters (by value: the stats are
  /// mutated on whichever pipeline thread drives the store).
  [[nodiscard]] RecoveryStats recovery_stats() const EXCLUDES(mu_);

 private:
  // tests/thread_safety_negative.cc probes the GUARDED_BY annotations.
  friend class ThreadSafetyNegativeProbe;

  SpillStore* ActiveLocked() REQUIRES(mu_) {
    return degraded_ ? fallback_.get() : primary_.get();
  }
  const SpillStore* ActiveLocked() const REQUIRES(mu_) {
    return degraded_ ? fallback_.get() : primary_.get();
  }

  /// Accounts the backoff before retry `attempt`.
  void BackoffLocked(int attempt) REQUIRES(mu_);
  void EmitIoErrorLocked(const std::string& detail) REQUIRES(mu_);

  /// Switches to the fallback store, migrating every readable primary
  /// partition. Returns an error only if some partition is unreadable.
  Status FallBackLocked(const std::string& reason) REQUIRES(mu_);

  RecoveryOptions options_;  // immutable after construction
  EventSink sink_;           // immutable after construction

  mutable Mutex mu_;
  std::unique_ptr<SpillStore> primary_ GUARDED_BY(mu_);
  std::unique_ptr<SpillStore> fallback_ GUARDED_BY(mu_);
  bool degraded_ GUARDED_BY(mu_) = false;
  RecoveryStats recovery_stats_ GUARDED_BY(mu_);
  /// io_stats() aggregate: retired-primary totals + active-store totals.
  IoStats retired_stats_ GUARDED_BY(mu_);
  mutable IoStats stats_ GUARDED_BY(mu_);
};

}  // namespace pjoin

#endif  // PJOIN_STORAGE_RECOVERING_SPILL_STORE_H_

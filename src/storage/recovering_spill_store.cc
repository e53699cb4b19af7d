#include "storage/recovering_spill_store.h"

#include <cmath>

#include "common/logging.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "obs/metrics_registry.h"
#include "storage/simulated_disk.h"

namespace pjoin {

namespace {

// Backoff before retry k (0-based): kBackoffInitialMicros * 2^k.
constexpr double kBackoffInitialMicros = 100;

void AddStats(IoStats* into, const IoStats& delta) {
  into->pages_written += delta.pages_written;
  into->pages_read += delta.pages_read;
  into->records_written += delta.records_written;
  into->records_read += delta.records_read;
  into->simulated_latency_micros += delta.simulated_latency_micros;
}

}  // namespace

RecoveringSpillStore::RecoveringSpillStore(std::unique_ptr<SpillStore> primary,
                                           RecoveryOptions options,
                                           EventSink sink)
    : options_(std::move(options)),
      sink_(std::move(sink)),
      primary_(std::move(primary)) {
  PJOIN_DCHECK(primary_ != nullptr);
}

void RecoveringSpillStore::BackoffLocked(int attempt) {
  recovery_stats_.backoff_micros +=
      static_cast<int64_t>(std::ldexp(kBackoffInitialMicros, attempt));
}

void RecoveringSpillStore::EmitIoErrorLocked(const std::string& detail) {
  ++recovery_stats_.io_errors;
  if (sink_) sink_(Event{EventType::kIoError, 0, -1, detail});
}

Status RecoveringSpillStore::FallBackLocked(const std::string& reason) {
  PJOIN_DCHECK(!degraded_);
  PJOIN_LOG(kWarn) << "spill store degrading to fallback: " << reason;
  fallback_ = std::make_unique<SimulatedDisk>();
  ++recovery_stats_.fallbacks;

  // Migrate every readable partition. Reads get the same retry budget as
  // regular operations; records behind a permanent read failure are lost
  // and reported — never silently dropped.
  std::vector<int> unreadable;
  for (int p : primary_->NonEmptyPartitions()) {
    Result<std::vector<std::string>> records = primary_->ReadPartition(p);
    for (int attempt = 0; attempt < options_.max_retries && !records.ok();
         ++attempt) {
      EmitIoErrorLocked("migration read of partition " + std::to_string(p) +
                        ": " + records.status().message());
      ++recovery_stats_.retries;
      BackoffLocked(attempt);
      records = primary_->ReadPartition(p);
    }
    if (!records.ok()) {
      recovery_stats_.records_lost += primary_->PartitionRecordCount(p);
      unreadable.push_back(p);
      continue;
    }
    PJOIN_RETURN_NOT_OK(fallback_->AppendBatch(p, *records));
    recovery_stats_.records_migrated +=
        static_cast<int64_t>(records->size());
  }

  AddStats(&retired_stats_, primary_->io_stats());
  degraded_ = true;
  // The same sticky gauge a degraded SpillManager sets: /healthz reads it.
  obs::MetricsRegistry::Global().GetGauge("pjoin_spill_degraded", "").Set(1);
  if (sink_) {
    sink_(Event{EventType::kDegradedMode, 0, -1,
                reason + "; migrated " +
                    std::to_string(recovery_stats_.records_migrated) +
                    " records"});
  }
  if (!unreadable.empty()) {
    return Status::IOError(
        "degraded with data loss: " +
        std::to_string(recovery_stats_.records_lost) +
        " records unreadable during migration (first partition " +
        std::to_string(unreadable.front()) + ")");
  }
  return Status::OK();
}

Status RecoveringSpillStore::AppendBatch(
    int partition, const std::vector<std::string>& records) {
  MutexLock lock(mu_);
  if (records.empty()) return ActiveLocked()->AppendBatch(partition, records);
  // Resume-from-watermark: the partition's durable record count tells how
  // much of the batch survived a failed or short write, so retries append
  // exactly the missing suffix — no duplicates, no loss.
  const int64_t durable_before = ActiveLocked()->PartitionRecordCount(partition);
  size_t done = 0;
  Status status;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++recovery_stats_.retries;
      BackoffLocked(attempt - 1);
      done = static_cast<size_t>(
          ActiveLocked()->PartitionRecordCount(partition) - durable_before);
      PJOIN_DCHECK(done <= records.size());
    }
    const std::vector<std::string> suffix(
        records.begin() + static_cast<ptrdiff_t>(done), records.end());
    status = suffix.empty() ? Status::OK()
                            : ActiveLocked()->AppendBatch(partition, suffix);
    if (status.ok()) {
      if (attempt > 0) ++recovery_stats_.recovered_ops;
      return Status::OK();
    }
    EmitIoErrorLocked("append to partition " + std::to_string(partition) +
                      ": " + status.message());
  }
  if (degraded_) {
    return Status::IOError("fallback store failed: " + status.message());
  }
  // Retries exhausted on the primary: degrade. The durable prefix of this
  // batch migrates with its partition; only the unwritten suffix remains.
  done = static_cast<size_t>(ActiveLocked()->PartitionRecordCount(partition) -
                             durable_before);
  PJOIN_RETURN_NOT_OK(
      FallBackLocked("permanent write failure: " + status.message()));
  const std::vector<std::string> suffix(
      records.begin() + static_cast<ptrdiff_t>(done), records.end());
  return fallback_->AppendBatch(partition, suffix);
}

Result<std::vector<std::string>> RecoveringSpillStore::ReadPartition(
    int partition) {
  MutexLock lock(mu_);
  Result<std::vector<std::string>> result =
      ActiveLocked()->ReadPartition(partition);
  for (int attempt = 0; attempt < options_.max_retries && !result.ok();
       ++attempt) {
    EmitIoErrorLocked("read of partition " + std::to_string(partition) + ": " +
                      result.status().message());
    ++recovery_stats_.retries;
    BackoffLocked(attempt);
    result = ActiveLocked()->ReadPartition(partition);
    if (result.ok()) ++recovery_stats_.recovered_ops;
  }
  if (result.ok()) return result;
  EmitIoErrorLocked("read of partition " + std::to_string(partition) + ": " +
                    result.status().message());
  if (degraded_) return result;
  // Permanent read failure on the primary: degrade. If this partition's
  // pages are truly unreadable the migration reports the loss.
  PJOIN_RETURN_NOT_OK(FallBackLocked("permanent read failure: " +
                                     result.status().message()));
  return fallback_->ReadPartition(partition);
}

Status RecoveringSpillStore::ClearPartition(int partition) {
  MutexLock lock(mu_);
  Status status = ActiveLocked()->ClearPartition(partition);
  for (int attempt = 0; attempt < options_.max_retries && !status.ok();
       ++attempt) {
    EmitIoErrorLocked("clear of partition " + std::to_string(partition) + ": " +
                      status.message());
    ++recovery_stats_.retries;
    BackoffLocked(attempt);
    status = ActiveLocked()->ClearPartition(partition);
    if (status.ok()) ++recovery_stats_.recovered_ops;
  }
  return status;
}

int64_t RecoveringSpillStore::PartitionRecordCount(int partition) const {
  MutexLock lock(mu_);
  return ActiveLocked()->PartitionRecordCount(partition);
}

int64_t RecoveringSpillStore::TotalRecordCount() const {
  MutexLock lock(mu_);
  return ActiveLocked()->TotalRecordCount();
}

std::vector<int> RecoveringSpillStore::NonEmptyPartitions() const {
  MutexLock lock(mu_);
  return ActiveLocked()->NonEmptyPartitions();
}

const IoStats& RecoveringSpillStore::io_stats() const {
  MutexLock lock(mu_);
  stats_ = retired_stats_;
  AddStats(&stats_, ActiveLocked()->io_stats());
  return stats_;
}

bool RecoveringSpillStore::degraded() const {
  MutexLock lock(mu_);
  return degraded_;
}

RecoveryStats RecoveringSpillStore::recovery_stats() const {
  MutexLock lock(mu_);
  return recovery_stats_;
}

}  // namespace pjoin

#include "fault/faulty_spill_store.h"

#include "common/macros.h"

namespace pjoin {

FaultySpillStore::FaultySpillStore(std::unique_ptr<SpillStore> base,
                                   IoFaultSpec spec,
                                   std::shared_ptr<FaultInjector> injector)
    : base_(std::move(base)), spec_(spec), injector_(std::move(injector)) {
  PJOIN_DCHECK(base_ != nullptr);
  PJOIN_DCHECK(injector_ != nullptr);
}

void FaultySpillStore::MaybeSpike() {
  if (injector_->Roll(spec_.latency_spike_rate)) {
    injected_latency_micros_ += spec_.latency_spike_micros;
    injector_->Count("io_latency_spike");
  }
}

Status FaultySpillStore::AppendBatch(int partition,
                                     const std::vector<std::string>& records) {
  if (records.empty()) return base_->AppendBatch(partition, records);
  MaybeSpike();
  if (writes_done_ < 0 || (spec_.permanent_write_failure_after >= 0 &&
                           writes_done_ >= spec_.permanent_write_failure_after)) {
    if (writes_done_ >= 0) injector_->Count("io_permanent_write");
    writes_done_ = -1;
    return Status::IOError("injected permanent write failure");
  }
  if (injector_->Roll(spec_.short_write_rate) && records.size() > 1) {
    // Persist a strict prefix, then fail: the classic torn batch. A naive
    // retry of the whole batch would duplicate the prefix.
    const auto kept = static_cast<size_t>(
        injector_->UniformInt(1, static_cast<int64_t>(records.size()) - 1));
    std::vector<std::string> prefix(records.begin(),
                                    records.begin() + static_cast<ptrdiff_t>(kept));
    PJOIN_RETURN_NOT_OK(base_->AppendBatch(partition, prefix));
    injector_->Count("io_short_write");
    return Status::IOError("injected short write (" + std::to_string(kept) +
                           "/" + std::to_string(records.size()) +
                           " records persisted)");
  }
  if (partition == spec_.target_partition &&
      injector_->Roll(spec_.partition_write_error_rate)) {
    injector_->Count("io_partition_write");
    return Status::IOError("injected write failure on partition " +
                           std::to_string(partition));
  }
  if (injector_->Roll(spec_.transient_write_error_rate)) {
    injector_->Count("io_transient_write");
    return Status::IOError("injected transient write error");
  }
  ++writes_done_;
  return base_->AppendBatch(partition, records);
}

Result<std::vector<std::string>> FaultySpillStore::ReadPartition(
    int partition) {
  MaybeSpike();
  if (reads_done_ < 0 || (spec_.permanent_read_failure_after >= 0 &&
                          reads_done_ >= spec_.permanent_read_failure_after)) {
    if (reads_done_ >= 0) injector_->Count("io_permanent_read");
    reads_done_ = -1;
    return Status::IOError("injected permanent read failure");
  }
  if (partition == spec_.target_partition &&
      injector_->Roll(spec_.partition_read_error_rate)) {
    injector_->Count("io_partition_read");
    return Status::IOError("injected read failure on partition " +
                           std::to_string(partition));
  }
  if (injector_->Roll(spec_.transient_read_error_rate)) {
    injector_->Count("io_transient_read");
    return Status::IOError("injected transient read error");
  }
  ++reads_done_;
  return base_->ReadPartition(partition);
}

Status FaultySpillStore::ClearPartition(int partition) {
  return base_->ClearPartition(partition);
}

int64_t FaultySpillStore::PartitionRecordCount(int partition) const {
  return base_->PartitionRecordCount(partition);
}

int64_t FaultySpillStore::TotalRecordCount() const {
  return base_->TotalRecordCount();
}

std::vector<int> FaultySpillStore::NonEmptyPartitions() const {
  return base_->NonEmptyPartitions();
}

const IoStats& FaultySpillStore::io_stats() const {
  stats_ = base_->io_stats();
  stats_.simulated_latency_micros += injected_latency_micros_;
  return stats_;
}

}  // namespace pjoin

// FaultySpillStore: a SpillStore decorator injecting the I/O faults of an
// IoFaultSpec into any underlying store (paired in tests and chaos runs with
// storage/recovering_spill_store.h, the defensive counterpart).

#ifndef PJOIN_FAULT_FAULTY_SPILL_STORE_H_
#define PJOIN_FAULT_FAULTY_SPILL_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "storage/spill_store.h"

namespace pjoin {

/// Injected-fault counter names (on the shared FaultInjector):
///   io_transient_write, io_transient_read, io_short_write,
///   io_latency_spike, io_permanent_write, io_permanent_read,
///   io_partition_write, io_partition_read.
class FaultySpillStore : public SpillStore {
 public:
  FaultySpillStore(std::unique_ptr<SpillStore> base, IoFaultSpec spec,
                   std::shared_ptr<FaultInjector> injector);

  Status AppendBatch(int partition,
                     const std::vector<std::string>& records) override;
  Result<std::vector<std::string>> ReadPartition(int partition) override;
  Status ClearPartition(int partition) override;
  int64_t PartitionRecordCount(int partition) const override;
  int64_t TotalRecordCount() const override;
  std::vector<int> NonEmptyPartitions() const override;
  const IoStats& io_stats() const override;

  /// True once the permanent write (read) failure tripped.
  bool write_failed_permanently() const { return writes_done_ < 0; }
  bool read_failed_permanently() const { return reads_done_ < 0; }

 private:
  /// Charges a latency spike when the dice say so.
  void MaybeSpike();

  std::unique_ptr<SpillStore> base_;
  IoFaultSpec spec_;
  std::shared_ptr<FaultInjector> injector_;
  /// Successful operations so far; -1 once permanently failed.
  int64_t writes_done_ = 0;
  int64_t reads_done_ = 0;
  int64_t injected_latency_micros_ = 0;
  mutable IoStats stats_;
};

}  // namespace pjoin

#endif  // PJOIN_FAULT_FAULTY_SPILL_STORE_H_

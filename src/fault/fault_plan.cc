#include "fault/fault_plan.h"

#include <sstream>

namespace pjoin {

std::string IoFaultSpec::ToString() const {
  std::ostringstream os;
  os << "io{w_err=" << transient_write_error_rate
     << " r_err=" << transient_read_error_rate
     << " short_w=" << short_write_rate << " spike=" << latency_spike_rate
     << "x" << latency_spike_micros
     << "us perm_w@" << permanent_write_failure_after
     << " perm_r@" << permanent_read_failure_after;
  if (target_partition >= 0) {
    os << " part" << target_partition << "{w=" << partition_write_error_rate
       << " r=" << partition_read_error_rate << "}";
  }
  os << " repart_err=" << repartition_error_rate << "}";
  return os.str();
}

std::string StreamFaultSpec::ToString() const {
  std::ostringstream os;
  os << "stream{late=" << late_tuple_rate
     << " malformed=" << malformed_punct_rate << " dup=" << duplicate_rate
     << " reorder=" << reorder_rate << " stall=" << stall_rate << "x"
     << stall_micros << "us}";
  return os.str();
}

std::string MigrationFaultSpec::ToString() const {
  std::ostringstream os;
  os << "migration{extract_err=" << extract_error_rate << "}";
  return os.str();
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << seed << " a=" << stream[0].ToString()
     << " b=" << stream[1].ToString() << " " << io.ToString() << " "
     << migration.ToString() << "}";
  return os.str();
}

}  // namespace pjoin

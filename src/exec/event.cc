#include "exec/event.h"

#include <sstream>

namespace pjoin {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kStreamEmpty:
      return "StreamEmptyEvent";
    case EventType::kPurgeThresholdReach:
      return "PurgeThresholdReachEvent";
    case EventType::kStateFull:
      return "StateFullEvent";
    case EventType::kDiskJoinActivate:
      return "DiskJoinActivateEvent";
    case EventType::kPropagateRequest:
      return "PropagateRequestEvent";
    case EventType::kPropagateTimeExpire:
      return "PropagateTimeExpireEvent";
    case EventType::kPropagateCountReach:
      return "PropagateCountReachEvent";
    case EventType::kIoError:
      return "IoErrorEvent";
    case EventType::kContractViolation:
      return "ContractViolationEvent";
    case EventType::kDegradedMode:
      return "DegradedModeEvent";
  }
  return "?";
}

std::string Event::ToString() const {
  std::ostringstream os;
  os << EventTypeName(type) << "@" << time;
  if (stream >= 0) os << " stream=" << stream;
  if (!detail.empty()) os << " [" << detail << "]";
  return os.str();
}

}  // namespace pjoin

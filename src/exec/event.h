// The event vocabulary of PJoin's event-driven framework (paper §3.6).

#ifndef PJOIN_EXEC_EVENT_H_
#define PJOIN_EXEC_EVENT_H_

#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"

namespace pjoin {

/// The events of §3.6. The paper's printed list skips number 4; from the
/// surrounding text ("both input streams are temporarily stuck ... and the
/// disk join activation threshold is reached") it is the disk-join
/// activation event, which we name explicitly.
enum class EventType {
  /// Both input streams have (temporarily) run out of tuples.
  kStreamEmpty = 0,
  /// The purge threshold was reached (lazy purge trigger).
  kPurgeThresholdReach,
  /// The in-memory join state reached the memory threshold.
  kStateFull,
  /// Disk-resident state exceeds the disk-join activation threshold while
  /// inputs are stalled.
  kDiskJoinActivate,
  /// A downstream operator requested punctuation propagation (pull mode).
  kPropagateRequest,
  /// The time propagation threshold expired (push mode).
  kPropagateTimeExpire,
  /// The count propagation threshold was reached (push mode).
  kPropagateCountReach,
  // ---- Robustness events (beyond the paper; see docs/ROBUSTNESS.md) ----
  /// A storage operation failed (transient or permanent I/O error).
  kIoError,
  /// An input element violated the punctuation contract (late tuple,
  /// malformed or non-prefix punctuation).
  kContractViolation,
  /// A component switched to a degraded operating mode (e.g. spill storage
  /// fell back from the file store to the in-memory store).
  kDegradedMode,
};

constexpr int kNumEventTypes = 10;

std::string_view EventTypeName(EventType type);

/// A dispatched event instance.
struct Event {
  EventType type;
  /// Time at which the monitor raised the event.
  TimeMicros time = 0;
  /// Input index (0/1) the event pertains to, or -1 when global.
  int stream = -1;
  /// Free-form context for diagnostics (violation kind, failed operation,
  /// ...); empty for the classic §3.6 events.
  std::string detail;

  std::string ToString() const;
};

/// A component that can be registered to handle events (memory join, disk
/// join, state purge, state relocation, index build, propagation, ...).
class EventListener {
 public:
  virtual ~EventListener() = default;
  /// Stable component name, shown in the registry table.
  virtual std::string_view name() const = 0;
  /// Reacts to one event.
  virtual Status HandleEvent(const Event& event) = 0;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_EVENT_H_

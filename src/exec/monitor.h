// Monitor: tracks the runtime parameters of a join execution and raises
// events through the registry when thresholds are crossed (paper §3.6).

#ifndef PJOIN_EXEC_MONITOR_H_
#define PJOIN_EXEC_MONITOR_H_

#include <cstdint>
#include <limits>

#include "common/clock.h"
#include "exec/registry.h"

namespace pjoin {

/// All threshold parameters of §3.6. They can be changed at runtime through
/// Monitor::params(), which is the join's own copy.
struct RuntimeParams {
  /// Punctuations between two state purges; 1 = eager purge (paper §3.4).
  int64_t purge_threshold = 1;
  /// In-memory state capacity in tuples (both states combined); crossing it
  /// raises StateFullEvent (state relocation). Default: effectively infinite.
  int64_t memory_threshold_tuples = std::numeric_limits<int64_t>::max();
  /// In-memory state capacity in payload bytes (both states combined);
  /// 0 disables the byte-based trigger. Either threshold crossing raises
  /// StateFullEvent.
  int64_t memory_threshold_bytes = 0;
  /// Push-mode propagation: raise PropagateCountReachEvent every this many
  /// newly arrived punctuations. 0 disables the count trigger.
  int64_t propagate_count_threshold = 0;
  /// Push-mode propagation: raise PropagateTimeExpireEvent when this much
  /// time has passed since the last propagation. 0 disables the time trigger.
  TimeMicros propagate_time_threshold = 0;
  /// Minimum number of disk-resident tuples for the disk join to be worth
  /// scheduling when the inputs stall (XJoin's activation threshold).
  int64_t disk_join_activation_threshold = 1;
};

class Monitor {
 public:
  /// `params` must outlive the monitor. A join passes its own
  /// JoinOptions::runtime, so a threshold retuned here also reaches the
  /// join's relocation, which reads the same struct.
  Monitor(RuntimeParams* params, EventRegistry* registry, const Clock* clock);

  /// Thresholds, tunable at runtime.
  RuntimeParams& params() { return *params_; }
  const RuntimeParams& params() const { return *params_; }

  // ---- Notifications from the join execution ----

  /// A punctuation arrived on input `stream`. May raise
  /// PurgeThresholdReachEvent and/or PropagateCountReachEvent.
  Status OnPunctuationArrived(int stream);

  /// In-memory state size changed; raises StateFullEvent when the tuple or
  /// byte memory threshold is reached.
  Status OnStateSizeChanged(int64_t in_memory_tuples,
                            int64_t in_memory_bytes = 0);

  /// Both inputs are stalled/drained; raises StreamEmptyEvent, and
  /// DiskJoinActivateEvent when `disk_resident_tuples` passes the activation
  /// threshold.
  Status OnStreamsEmpty(int64_t disk_resident_tuples);

  /// Pull-mode propagation request from a downstream operator.
  Status RequestPropagation();

  /// Periodic driver tick; raises PropagateTimeExpireEvent when the time
  /// threshold expired.
  Status Tick();

  // ---- Acknowledgements that reset trigger counters ----

  /// The purge component ran; resets the punctuations-since-purge counter.
  void OnPurgeRan();
  /// The propagation component ran; resets count and time triggers.
  void OnPropagationRan();

  // ---- Introspection ----
  int64_t puncts_since_purge(int stream) const;
  int64_t puncts_since_propagation() const { return puncts_since_propagation_; }

 private:
  Event MakeEvent(EventType type, int stream = -1) const;

  RuntimeParams* params_;
  EventRegistry* registry_;
  const Clock* clock_;
  int64_t puncts_since_purge_[2] = {0, 0};
  int64_t puncts_since_propagation_ = 0;
  TimeMicros last_propagation_time_ = 0;
  bool state_full_raised_ = false;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_MONITOR_H_

#include "exec/monitor.h"

#include "common/macros.h"

namespace pjoin {

Monitor::Monitor(RuntimeParams* params, EventRegistry* registry,
                 const Clock* clock)
    : params_(params), registry_(registry), clock_(clock) {
  PJOIN_DCHECK(params != nullptr);
  PJOIN_DCHECK(registry != nullptr);
  PJOIN_DCHECK(clock != nullptr);
}

Event Monitor::MakeEvent(EventType type, int stream) const {
  return Event{type, clock_->NowMicros(), stream, {}};
}

Status Monitor::OnPunctuationArrived(int stream) {
  PJOIN_DCHECK(stream == 0 || stream == 1);
  ++puncts_since_purge_[stream];
  ++puncts_since_propagation_;
  const int64_t total = puncts_since_purge_[0] + puncts_since_purge_[1];
  if (params_->purge_threshold > 0 && total >= params_->purge_threshold) {
    PJOIN_RETURN_NOT_OK(
        registry_->Dispatch(MakeEvent(EventType::kPurgeThresholdReach,
                                      stream)));
  }
  if (params_->propagate_count_threshold > 0 &&
      puncts_since_propagation_ >= params_->propagate_count_threshold) {
    PJOIN_RETURN_NOT_OK(
        registry_->Dispatch(MakeEvent(EventType::kPropagateCountReach)));
  }
  return Status::OK();
}

Status Monitor::OnStateSizeChanged(int64_t in_memory_tuples,
                                   int64_t in_memory_bytes) {
  const bool over_bytes = params_->memory_threshold_bytes > 0 &&
                          in_memory_bytes >= params_->memory_threshold_bytes;
  if (over_bytes || in_memory_tuples >= params_->memory_threshold_tuples) {
    // Raise once per crossing; re-arm when the state shrinks below the
    // threshold (after relocation or purge).
    if (!state_full_raised_) {
      state_full_raised_ = true;
      PJOIN_RETURN_NOT_OK(
          registry_->Dispatch(MakeEvent(EventType::kStateFull)));
    }
  } else {
    state_full_raised_ = false;
  }
  return Status::OK();
}

Status Monitor::OnStreamsEmpty(int64_t disk_resident_tuples) {
  PJOIN_RETURN_NOT_OK(registry_->Dispatch(MakeEvent(EventType::kStreamEmpty)));
  if (disk_resident_tuples >= params_->disk_join_activation_threshold) {
    PJOIN_RETURN_NOT_OK(
        registry_->Dispatch(MakeEvent(EventType::kDiskJoinActivate)));
  }
  return Status::OK();
}

Status Monitor::RequestPropagation() {
  return registry_->Dispatch(MakeEvent(EventType::kPropagateRequest));
}

Status Monitor::Tick() {
  if (params_->propagate_time_threshold > 0 &&
      clock_->NowMicros() - last_propagation_time_ >=
          params_->propagate_time_threshold) {
    PJOIN_RETURN_NOT_OK(
        registry_->Dispatch(MakeEvent(EventType::kPropagateTimeExpire)));
  }
  return Status::OK();
}

void Monitor::OnPurgeRan() {
  puncts_since_purge_[0] = 0;
  puncts_since_purge_[1] = 0;
}

void Monitor::OnPropagationRan() {
  puncts_since_propagation_ = 0;
  last_propagation_time_ = clock_->NowMicros();
}

int64_t Monitor::puncts_since_purge(int stream) const {
  PJOIN_DCHECK(stream == 0 || stream == 1);
  return puncts_since_purge_[stream];
}

}  // namespace pjoin

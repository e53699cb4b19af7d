#include "ops/pipeline.h"

#include <algorithm>

#include "common/macros.h"
#include "stream/arrival_merge.h"

namespace pjoin {

JoinPipeline::JoinPipeline(JoinOperator* join, Operator* head,
                           PipelineOptions options)
    : join_(join), head_(head), options_(std::move(options)) {
  PJOIN_DCHECK(join_ != nullptr);
}

Status JoinPipeline::Run(const std::vector<StreamElement>& left,
                         const std::vector<StreamElement>& right) {
  Status pipe_status;
  if (head_ != nullptr) {
    join_->set_result_callback([this, &pipe_status](const Tuple& t) {
      Status s = head_->OnTuple(t, join_->last_arrival());
      if (!s.ok() && pipe_status.ok()) pipe_status = s;
    });
    join_->set_punct_callback([this, &pipe_status](const Punctuation& p) {
      Status s = head_->OnPunctuation(p, join_->last_arrival());
      if (!s.ok() && pipe_status.ok()) pipe_status = s;
    });
  }

  TimeMicros last_arrival = 0;
  for (ArrivalMerge merge(left, right); !merge.done();) {
    const auto [side, e] = merge.Next();
    if (options_.stall_gap_micros > 0 &&
        e->arrival() - last_arrival >= options_.stall_gap_micros) {
      ++stalls_detected_;
      PJOIN_RETURN_NOT_OK(join_->OnStreamsStalled());
    }
    last_arrival = std::max(last_arrival, e->arrival());
    PJOIN_RETURN_NOT_OK(join_->OnElement(side, *e));
    PJOIN_RETURN_NOT_OK(pipe_status);
    ++elements_processed_;
    if (options_.progress) options_.progress(elements_processed_);
  }

  if (head_ != nullptr) {
    PJOIN_RETURN_NOT_OK(head_->OnEndOfStream());
  }
  return pipe_status;
}

}  // namespace pjoin

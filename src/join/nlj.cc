#include "join/nlj.h"

namespace pjoin {

NestedLoopReferenceJoin::NestedLoopReferenceJoin(SchemaPtr left_schema,
                                                 SchemaPtr right_schema,
                                                 JoinOptions options)
    : JoinOperator(std::move(left_schema), std::move(right_schema),
                   std::move(options)) {}

Status NestedLoopReferenceJoin::OnTupleHashed(int side, const Tuple& tuple,
                                              uint64_t key_hash) {
  (void)key_hash;
  buffered_[side].push_back(tuple);
  return Status::OK();
}

Status NestedLoopReferenceJoin::OnPunctuation(int side,
                                              const Punctuation& punct) {
  (void)side;
  (void)punct;
  counters().Add("puncts_ignored");
  return Status::OK();
}

Status NestedLoopReferenceJoin::Finish() {
  const size_t lk = options().left_key;
  const size_t rk = options().right_key;
  for (const Tuple& l : buffered_[0]) {
    for (const Tuple& r : buffered_[1]) {
      if (l.field(lk) == r.field(rk)) EmitResult(l, r);
    }
  }
  return Status::OK();
}

}  // namespace pjoin

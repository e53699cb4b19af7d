#include "join/shj.h"

namespace pjoin {

SymmetricHashJoin::SymmetricHashJoin(SchemaPtr left_schema,
                                     SchemaPtr right_schema,
                                     JoinOptions options)
    : JoinOperator(std::move(left_schema), std::move(right_schema),
                   std::move(options)) {}

Status SymmetricHashJoin::OnTupleHashed(int side, const Tuple& tuple,
                                        uint64_t key_hash) {
  const int64_t tick = NextTick();
  ProbeOppositeMemory(side, tuple, key_hash);
  InsertTuple(side, tuple, tick, key_hash);
  return Status::OK();
}

Status SymmetricHashJoin::OnPunctuation(int side, const Punctuation& punct) {
  (void)side;
  (void)punct;
  counters().Add("puncts_ignored");
  return Status::OK();
}

Status SymmetricHashJoin::Finish() { return Status::OK(); }

}  // namespace pjoin

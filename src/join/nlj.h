// NestedLoopReferenceJoin: the O(n*m) oracle. Buffers both inputs entirely
// and emits every key-equal pair at Finish. Useless as a stream operator,
// invaluable for verifying the streaming joins (it is what the test suite's
// equivalence property compares against, available here as a library
// citizen so downstream users can self-check their own configurations).

#ifndef PJOIN_JOIN_NLJ_H_
#define PJOIN_JOIN_NLJ_H_

#include <vector>

#include "join/join_base.h"

namespace pjoin {

class NestedLoopReferenceJoin : public JoinOperator {
 public:
  NestedLoopReferenceJoin(SchemaPtr left_schema, SchemaPtr right_schema,
                          JoinOptions options = {});

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override;
  Status OnPunctuation(int side, const Punctuation& punct) override;
  Status Finish() override;

 private:
  std::vector<Tuple> buffered_[2];
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_NLJ_H_

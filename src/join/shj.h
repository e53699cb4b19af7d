// SymmetricHashJoin: the classic pipelined equi-join of Wilschut & Apers —
// the common ancestor of XJoin and PJoin. Keeps everything in memory, never
// purges, ignores punctuations.

#ifndef PJOIN_JOIN_SHJ_H_
#define PJOIN_JOIN_SHJ_H_

#include "join/join_base.h"

namespace pjoin {

class SymmetricHashJoin : public JoinOperator {
 public:
  SymmetricHashJoin(SchemaPtr left_schema, SchemaPtr right_schema,
                    JoinOptions options = {});

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override;
  Status OnPunctuation(int side, const Punctuation& punct) override;
  Status Finish() override;
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_SHJ_H_

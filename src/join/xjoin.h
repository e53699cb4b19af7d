// XJoin (Urhan & Franklin): symmetric hash join with memory-overflow
// resolution, reimplemented as the paper's constraint-oblivious baseline.
//
// Three stages:
//  1. memory-to-memory — per-tuple probe of the opposite in-memory bucket;
//  2. reactive disk-to-memory — when both inputs stall, the disk portion of
//     one partition is fetched and probed against the opposite in-memory
//     portion;
//  3. cleanup disk-to-disk — at end of stream, all remaining combinations.
// Stages 2 and 3 use the timestamp (ats/dts + probe history) scheme to
// avoid emitting any pair twice. Punctuations are ignored.

#ifndef PJOIN_JOIN_XJOIN_H_
#define PJOIN_JOIN_XJOIN_H_

#include "join/join_base.h"

namespace pjoin {

class XJoin : public JoinOperator {
 public:
  XJoin(SchemaPtr left_schema, SchemaPtr right_schema,
        JoinOptions options = {});

  /// Runs one reactive (stage 2) pass if any partition has disk-resident
  /// data beyond the activation threshold.
  Status OnStreamsStalled() override;

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override;
  Status OnPunctuation(int side, const Punctuation& punct) override;
  Status Finish() override;

 private:
  /// Stage 2 on one (side, partition): fetch side's disk portion, probe the
  /// opposite memory portion.
  Status ReactivePass(int side, int partition);

  /// Picks the (side, partition) with the largest disk portion; false if no
  /// disk-resident data exists.
  bool PickReactiveVictim(int* side, int* partition) const;

  /// Stage 3: every not-yet-joined combination involving disk data.
  Status CleanupPass();
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_XJOIN_H_

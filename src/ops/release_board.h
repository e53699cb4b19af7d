// PunctReleaseBoard: exactly-once punctuation emission over sharded
// releases — the merger-side half of the parallel pipeline's punctuation
// contract (paper §3.3; docs/PERFORMANCE.md "The lock-free spine").
//
// One rule decides when a punctuation leaves the pipeline. The router
// records each dispatched round — the shards it sent that punctuation to —
// before staging it to any of them. Each receiving shard releases the
// punctuation after the results it covers, and the board credits that
// release to the shard's oldest open round of the same output string. A
// round is emitted once every one of its shards has released it, and never
// ahead of an older round of the same string. So a released punctuation
// never overtakes a result it covers: each of the round's shards has
// released it, and each flushes its results before its releases.
//
// Counting per shard, not per string, matters because rounds of one string
// overlap: a left and a right punctuation over the same keys map to the
// same output string. A fast shard's second release must not stand in for
// a slow shard's first.
//
// Threading: the board is deliberately plain sequential state, owned by
// the single merger thread (router/caller). The concurrency around it —
// shards pushing releases through their output rings, the merger draining
// them — lives in SpscRing; tests/model_check_test.cc model-checks the
// combined rings+board protocol (exactly-once, never ahead of a shard's
// release, under every interleaving) by driving this same class from
// model threads over SpscRing<_, mc::ModelPolicy> edges.

#ifndef PJOIN_OPS_RELEASE_BOARD_H_
#define PJOIN_OPS_RELEASE_BOARD_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "punct/punctuation.h"

namespace pjoin {

class PunctReleaseBoard {
 public:
  explicit PunctReleaseBoard(int num_shards);

  /// Records one dispatched round of output punctuation `p`: sent to
  /// `shard` alone, or to every shard when `shard` is negative. Must run
  /// before the round's first element is staged, because staging can drain
  /// the output rings and a shard may already have released it.
  void NoteDispatch(const Punctuation& p, int shard);

  /// Credits `shard`'s release of `p` to that shard's oldest open round of
  /// `p` and returns how many rounds of `p` this completed — the number of
  /// times the caller emits `p` now (usually 0 or 1).
  int Release(const Punctuation& p, int shard);

  /// Rounds that some, but not all, of their shards have released. 0 after
  /// a clean run. O(1) — maintained on Release, so the merger can publish
  /// it per batch (pjoin_punct_pending_rounds).
  int64_t pending_rounds() const { return pending_; }

 private:
  struct Round {
    /// Per shard: still owes a release to this round.
    std::vector<bool> waiting;
    int shards = 0;     // fan-out
    int remaining = 0;  // shards still waiting
  };

  int num_shards_;
  /// Open rounds per output string, in dispatch order. An entry is erased
  /// once its last round is emitted.
  std::unordered_map<std::string, std::deque<Round>> open_;
  int64_t pending_ = 0;
};

}  // namespace pjoin

#endif  // PJOIN_OPS_RELEASE_BOARD_H_

// WindowPJoin: the sliding-window extension sketched in paper §6.
//
// Semantics: a pair (a, b) is a result iff their keys are equal and their
// arrival timestamps lie within `window_micros` of each other. Tuples are
// kept in arrival order per bucket so that window invalidation stops at the
// first still-valid tuple (the paper's suggestion). Punctuations purge
// tuples *earlier* than the window would — and enable early punctuation
// propagation: a punctuation is released as soon as no own-side tuple
// matching it remains, instead of waiting a full window length.
//
// The state is memory-only: as §6 notes, windows (and punctuations) already
// bound the state, so the overflow machinery of the unwindowed PJoin is not
// needed here.

#ifndef PJOIN_WINDOW_WINDOW_PJOIN_H_
#define PJOIN_WINDOW_WINDOW_PJOIN_H_

#include <deque>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "join/join_base.h"
#include "punct/punctuation_set.h"

namespace pjoin {

struct WindowJoinOptions {
  size_t left_key = 0;
  size_t right_key = 0;
  int num_partitions = 16;
  /// Window length: tuples join when their arrival times differ by at most
  /// this much.
  TimeMicros window_micros = 1000 * kMicrosPerMilli;
  /// Exploit punctuations for purge (before expiry) and early propagation.
  bool exploit_punctuations = true;
};

class WindowPJoin {
 public:
  using ResultCallback = std::function<void(const Tuple&)>;
  using PunctCallback = std::function<void(const Punctuation&)>;

  WindowPJoin(SchemaPtr left_schema, SchemaPtr right_schema,
              WindowJoinOptions options = {});
  PJOIN_DISALLOW_COPY_AND_MOVE(WindowPJoin);

  const SchemaPtr& output_schema() const { return output_schema_; }
  void set_result_callback(ResultCallback cb) { on_result_ = std::move(cb); }
  void set_punct_callback(PunctCallback cb) { on_punct_ = std::move(cb); }

  Status OnElement(int side, const StreamElement& element);

  // ---- Introspection ----
  int64_t results_emitted() const { return results_emitted_; }
  int64_t puncts_emitted() const { return puncts_emitted_; }
  int64_t state_tuples() const { return state_tuples_[0] + state_tuples_[1]; }
  int64_t state_tuples(int side) const;
  const CounterSet& counters() const { return counters_; }

 private:
  struct TimedEntry {
    Tuple tuple;
    TimeMicros arrival;
  };

  struct SideState {
    SchemaPtr schema;
    size_t key_index;
    // Per partition, in arrival order.
    std::vector<std::deque<TimedEntry>> buckets;
    std::unique_ptr<PunctuationSet> puncts;
  };

  Status OnTuple(int side, const Tuple& tuple, TimeMicros arrival);
  Status OnPunctuation(int side, const Punctuation& punct,
                       TimeMicros arrival);
  Status Finish();

  /// Drops opposite-side tuples older than `now - window` (they can no
  /// longer join anything arriving at or after `now`).
  void ExpireSide(int side, TimeMicros now);

  /// Removes side-`side` tuples covered by the opposite punctuation set.
  void PurgeByPunctuations(int side);

  /// Releases every held punctuation of `side` with no matching own-side
  /// tuple left (early propagation).
  Status PropagateSide(int side);

  void EmitResult(const Tuple& left, const Tuple& right);

  int PartitionOf(const SideState& s, const Value& key) const;

  WindowJoinOptions options_;
  SchemaPtr output_schema_;
  SideState sides_[2];
  ResultCallback on_result_;
  PunctCallback on_punct_;
  CounterSet counters_;
  int64_t state_tuples_[2] = {0, 0};
  int64_t results_emitted_ = 0;
  int64_t puncts_emitted_ = 0;
  bool eos_[2] = {false, false};
  bool finished_ = false;
};

}  // namespace pjoin

#endif  // PJOIN_WINDOW_WINDOW_PJOIN_H_

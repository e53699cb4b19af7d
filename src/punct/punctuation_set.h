// PunctuationSet: the punctuations of one input stream that have arrived but
// not yet been propagated (paper §3.1, Fig 2a).
//
// The set supports the two operations the join needs on its hot path:
//   - setMatch(t, PS): does any punctuation in the set match tuple t?
//   - first-match lookup for the propagation index (assigning pids).
// Constant patterns on the join attribute (by far the common case) are
// indexed in a hash map; other pattern kinds are scanned linearly. The
// cross-stream key test (SetMatchKey) reads a flat table of the covered
// constants' hashes, so a caller holding a tuple's cached key hash never
// hashes the key again.

#ifndef PJOIN_PUNCT_PUNCTUATION_SET_H_
#define PJOIN_PUNCT_PUNCTUATION_SET_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "punct/punctuation.h"

namespace pjoin {

/// Sentinel pid for "tuple not covered by any punctuation" (paper Fig 2b).
constexpr int64_t kNullPid = -1;

/// One punctuation plus the propagation-index bookkeeping of paper Fig 2a:
/// `match_count` counts tuples in the same state that carry this pid, and
/// `indexed` records whether index building has processed this punctuation.
struct PunctEntry {
  int64_t pid = kNullPid;
  Punctuation punct;
  TimeMicros arrival = 0;
  int64_t match_count = 0;
  bool indexed = false;
  /// True when every pattern other than the join attribute is the wildcard.
  /// Only such punctuations may purge the *opposite* state: they alone
  /// guarantee that no future tuple of this stream carries a covered key.
  bool key_only = false;
};

class PunctuationSet {
 public:
  /// `attr_index` is the join attribute the hash index keys on.
  /// `validate_prefix` enforces the paper's §2.2 assumption: for punctuations
  /// p_i before p_j, Ptn_i ∧ Ptn_j ∈ {∅, Ptn_i} (on the join attribute).
  explicit PunctuationSet(size_t attr_index, bool validate_prefix = false);

  /// Adds a punctuation; returns its pid (pids increase in arrival order).
  /// Fails with FailedPrecondition if prefix validation is on and violated.
  Result<int64_t> Add(Punctuation punct, TimeMicros arrival);

  /// setMatch(t, PS): true if some punctuation in the set matches `t`.
  [[nodiscard]] bool SetMatch(const Tuple& t) const;

  /// Cross-stream setMatch on the join attribute (paper §2.2: "we only focus
  /// on exploiting punctuations over the join attribute"): true if some
  /// *key-only* punctuation ever added, removed or not, covers `join_value`
  /// with its join-attribute pattern. This is the test used to purge the
  /// opposite state and to drop arriving opposite-stream tuples on the fly.
  [[nodiscard]] bool SetMatchKey(const Value& join_value) const {
    return SetMatchKey(join_value, join_value.Hash());
  }

  /// SetMatchKey for a caller that already holds `key_hash`, which must be
  /// `join_value.Hash()` (a state entry's cached `key_hash`). Covered
  /// constants are found by hash; `join_value` is read only on a full
  /// 64-bit hash hit or by a covered non-constant pattern. A wrong hash can
  /// only miss a covered constant, never cover an uncovered key.
  [[nodiscard]] bool SetMatchKey(const Value& join_value,
                                 uint64_t key_hash) const;

  /// The earliest-arrived punctuation matching `t`, or nullptr. Used to
  /// assign pids when building the propagation index.
  PunctEntry* FindFirstMatch(const Tuple& t);

  /// Entry by pid, or nullptr if absent (e.g. already propagated).
  PunctEntry* Find(int64_t pid);
  const PunctEntry* Find(int64_t pid) const;

  /// Removes a punctuation (after propagation). Its key coverage stays:
  /// a key-only punctuation's guarantee "no more tuples with these keys"
  /// holds forever, and the purge / on-the-fly-drop checks of the
  /// *opposite* stream (or, in the n-ary join, of all other streams) still
  /// rely on it.
  void Remove(int64_t pid);

  /// Pids in arrival order.
  std::vector<int64_t> PidsInOrder() const;

  /// Drains the join-attribute patterns of the key-only punctuations added
  /// since the last call, in arrival order. They are queued at Add, so a
  /// punctuation that propagation has removed in between is still applied.
  /// Used by the indexed state purge to touch each punctuation once instead
  /// of rescanning the whole set.
  std::vector<Pattern> TakeUnappliedForPurge();

  /// Drains the queue of punctuations that index building has not yet
  /// processed, in arrival order. BuildIndex marks them indexed.
  std::vector<int64_t> TakeUnindexed();

  /// Visits entries in arrival order; `fn` may mutate the entry but must not
  /// add or remove entries.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (auto& [pid, entry] : entries_) fn(entry);
  }

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// True if SetMatchKey can cover some key: a key-only punctuation with a
  /// non-empty join-attribute pattern was ever added. Unlike empty(), this
  /// outlives Remove.
  [[nodiscard]] bool covers_any_key() const {
    return !covered_values_.empty() || !covered_patterns_.empty();
  }

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

 private:
  bool PrefixOk(const Punctuation& punct) const;
  /// One slot of the covered-constant table: a constant's 64-bit hash and
  /// its position in `covered_values_` plus one; 0 marks a free slot, so
  /// every hash fits in the table.
  struct CoveredSlot {
    uint64_t hash = 0;
    uint32_t value_pos = 0;
  };

  /// True if `constant` (whose hash is `hash`) is a covered constant.
  bool CoversConstant(const Value& constant, uint64_t hash) const;
  /// Records a covered constant, once, growing the table as needed.
  void CoverConstant(const Value& constant);
  /// Puts `slot` into the first free slot from its home slot.
  void PlaceCovered(CoveredSlot slot);
  /// Home slot of `hash` in the covered-constant table (Fibonacci map of
  /// the mixed high bits; the low bits also pick shards and partitions).
  size_t HomeSlot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >>
                               covered_shift_);
  }

  size_t attr_index_;
  bool validate_prefix_;
  int64_t next_pid_ = 0;
  // Ordered by pid == arrival order.
  std::map<int64_t, PunctEntry> entries_;
  // Constant join-attribute patterns: value -> pids carrying it.
  std::unordered_map<Value, std::vector<int64_t>, ValueHash> constant_index_;
  // Pids whose join-attribute pattern is not a constant.
  std::vector<int64_t> nonconstant_pids_;
  // Join-attribute patterns of every key-only punctuation added, recorded
  // at Add and never withdrawn; SetMatchKey reads only these. Constants are
  // kept once each in `covered_values_` and found through
  // `covered_slots_`, an open-addressing table with linear probing,
  // power-of-two sized and at most half full. Any other non-empty pattern
  // goes into a list.
  std::vector<Value> covered_values_;
  std::vector<CoveredSlot> covered_slots_;
  int covered_shift_ = 0;
  std::vector<Pattern> covered_patterns_;
  // Work queues consumed by the purge and index-build components.
  std::vector<Pattern> unapplied_purge_patterns_;
  std::vector<int64_t> unindexed_pids_;
};

}  // namespace pjoin

#endif  // PJOIN_PUNCT_PUNCTUATION_SET_H_

// PunctuationSet: the punctuations of one input stream that have arrived but
// not yet been propagated (paper §3.1, Fig 2a).
//
// The set supports the two operations the join needs on its hot path:
//   - setMatch(t, PS): does any punctuation in the set match tuple t?
//   - first-match lookup for the propagation index (assigning pids).
// Constant patterns on the join attribute (by far the common case) are
// indexed in a hash map; other pattern kinds are scanned linearly.

#ifndef PJOIN_PUNCT_PUNCTUATION_SET_H_
#define PJOIN_PUNCT_PUNCTUATION_SET_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
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
  /// True once the state purge has applied this punctuation (used by the
  /// indexed purge mode).
  bool purge_applied = false;
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
  [[nodiscard]] bool SetMatchKey(const Value& join_value) const;

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

  /// Drains the queue of punctuations added since the last call, in arrival
  /// order (pids of already-removed punctuations are skipped by callers via
  /// Find). Used by the state purge to touch each punctuation once instead
  /// of rescanning the whole set, and marks them purge_applied.
  std::vector<int64_t> TakeUnappliedForPurge();

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

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

 private:
  bool PrefixOk(const Punctuation& punct) const;

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
  // at Add and never withdrawn: constants in a hash set, any other
  // non-empty pattern in a list. SetMatchKey reads only these.
  std::unordered_set<Value, ValueHash> covered_constants_;
  std::vector<Pattern> covered_patterns_;
  // Work queues consumed by the purge and index-build components.
  std::vector<int64_t> unapplied_purge_pids_;
  std::vector<int64_t> unindexed_pids_;
};

}  // namespace pjoin

#endif  // PJOIN_PUNCT_PUNCTUATION_SET_H_

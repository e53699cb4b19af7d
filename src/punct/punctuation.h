// Punctuation: an ordered set of patterns, one per attribute (paper §2.2).
//
// A punctuation asserts that no tuple arriving after it will match all of its
// patterns. A tuple t "matches" punctuation p — match(t, p) — when every
// field of t satisfies the corresponding pattern.

#ifndef PJOIN_PUNCT_PUNCTUATION_H_
#define PJOIN_PUNCT_PUNCTUATION_H_

#include <string>
#include <vector>

#include "punct/pattern.h"
#include "tuple/tuple.h"

namespace pjoin {

class Punctuation {
 public:
  Punctuation() = default;
  /// One pattern per attribute of the stream's schema.
  explicit Punctuation(std::vector<Pattern> patterns);

  /// A punctuation that constrains only attribute `attr` (all other
  /// attributes wildcard) of a `num_fields`-wide schema.
  static Punctuation ForAttribute(size_t num_fields, size_t attr,
                                  Pattern pattern);

  /// Pairwise "and"; both punctuations must have the same width.
  static Punctuation And(const Punctuation& a, const Punctuation& b);

  size_t num_patterns() const { return patterns_.size(); }
  const Pattern& pattern(size_t i) const;
  const std::vector<Pattern>& patterns() const { return patterns_; }

  /// match(t, p): every field of `t` satisfies the corresponding pattern.
  bool Matches(const Tuple& t) const;

  /// True if some pattern is empty, so no tuple can ever match.
  bool IsEmpty() const;
  /// True if every pattern is the wildcard (the punctuation says nothing).
  bool IsAllWildcard() const;

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

  std::string ToString() const;

  friend bool operator==(const Punctuation& a, const Punctuation& b) {
    return a.patterns_ == b.patterns_;
  }
  friend bool operator!=(const Punctuation& a, const Punctuation& b) {
    return !(a == b);
  }

 private:
  std::vector<Pattern> patterns_;
};

/// Lifts a punctuation of input `side` (0 = left, 1 = right) of an equi-join
/// onto the join's output schema (the left fields, then the right): the
/// side's patterns carry over, everything else is a wildcard, and the join
/// predicate transfers the key pattern to the other side's key position.
Punctuation LiftToJoinOutput(int side, const Punctuation& punct,
                             size_t left_width, size_t right_width,
                             size_t left_key, size_t right_key);

}  // namespace pjoin

#endif  // PJOIN_PUNCT_PUNCTUATION_H_

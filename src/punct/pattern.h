// Pattern: the per-attribute building block of a punctuation (paper §2.2).
//
// Five kinds: wildcard (*), constant, range, enumeration list, and the empty
// pattern. The "and" (intersection) of any two patterns is again a pattern.

#ifndef PJOIN_PUNCT_PATTERN_H_
#define PJOIN_PUNCT_PATTERN_H_

#include <string>
#include <vector>

#include "tuple/value.h"

namespace pjoin {

enum class PatternKind { kWildcard = 0, kConstant, kRange, kEnumList, kEmpty };

/// An attribute pattern. Immutable and canonicalized at construction:
///  - an enumeration list is sorted and de-duplicated,
///  - an empty enumeration list becomes the empty pattern,
///  - a single-element enumeration list becomes a constant,
///  - a range with lo > hi becomes the empty pattern,
///  - a range with lo == hi becomes a constant.
/// With this canonical form, structural equality coincides with semantic
/// equality for all patterns the library constructs (ranges are treated as
/// continuous intervals, so a range is never equal to an enumeration list).
class Pattern {
 public:
  /// Matches every value.
  static Pattern Wildcard();
  /// Matches exactly `v`.
  static Pattern Constant(Value v);
  /// Matches all values in the closed interval [lo, hi]. lo and hi must have
  /// the same type.
  static Pattern Range(Value lo, Value hi);
  /// Matches any of the given values (all the same type).
  static Pattern EnumList(std::vector<Value> values);
  /// Matches nothing.
  static Pattern Empty();

  /// Default-constructed pattern is the wildcard.
  Pattern() : kind_(PatternKind::kWildcard) {}

  PatternKind kind() const { return kind_; }
  bool IsEmpty() const { return kind_ == PatternKind::kEmpty; }
  bool IsWildcard() const { return kind_ == PatternKind::kWildcard; }
  bool IsConstant() const { return kind_ == PatternKind::kConstant; }

  /// The constant value; kind() must be kConstant.
  const Value& constant() const;
  /// Range bounds; kind() must be kRange.
  const Value& lo() const;
  const Value& hi() const;
  /// Enumeration members (sorted); kind() must be kEnumList.
  const std::vector<Value>& members() const;

  /// True if `v` satisfies this pattern.
  bool Matches(const Value& v) const;

  /// Intersection of two patterns (the paper's "and"); always canonical.
  static Pattern And(const Pattern& a, const Pattern& b);

  /// True if every value matching `inner` also matches `outer`.
  static bool Covers(const Pattern& outer, const Pattern& inner);

  /// Approximate in-memory footprint in bytes.
  size_t ByteSize() const;

  std::string ToString() const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.kind_ == b.kind_ && a.values_ == b.values_;
  }
  friend bool operator!=(const Pattern& a, const Pattern& b) {
    return !(a == b);
  }

 private:
  Pattern(PatternKind kind, std::vector<Value> values)
      : kind_(kind), values_(std::move(values)) {}

  PatternKind kind_;
  // kConstant: [v]; kRange: [lo, hi]; kEnumList: sorted members; else empty.
  std::vector<Value> values_;
};

}  // namespace pjoin

#endif  // PJOIN_PUNCT_PATTERN_H_

#include "punct/pattern.h"

#include <algorithm>
#include <sstream>

#include "common/macros.h"

namespace pjoin {

Pattern Pattern::Wildcard() { return Pattern(PatternKind::kWildcard, {}); }

Pattern Pattern::Constant(Value v) {
  return Pattern(PatternKind::kConstant, {std::move(v)});
}

Pattern Pattern::Range(Value lo, Value hi) {
  PJOIN_DCHECK(lo.type() == hi.type());
  if (hi < lo) return Empty();
  if (lo == hi) return Constant(std::move(lo));
  return Pattern(PatternKind::kRange, {std::move(lo), std::move(hi)});
}

Pattern Pattern::EnumList(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.empty()) return Empty();
  if (values.size() == 1) return Constant(std::move(values[0]));
  return Pattern(PatternKind::kEnumList, std::move(values));
}

Pattern Pattern::Empty() { return Pattern(PatternKind::kEmpty, {}); }

const Value& Pattern::constant() const {
  PJOIN_DCHECK(kind_ == PatternKind::kConstant);
  return values_[0];
}

const Value& Pattern::lo() const {
  PJOIN_DCHECK(kind_ == PatternKind::kRange);
  return values_[0];
}

const Value& Pattern::hi() const {
  PJOIN_DCHECK(kind_ == PatternKind::kRange);
  return values_[1];
}

const std::vector<Value>& Pattern::members() const {
  PJOIN_DCHECK(kind_ == PatternKind::kEnumList);
  return values_;
}

bool Pattern::Matches(const Value& v) const {
  switch (kind_) {
    case PatternKind::kWildcard:
      return true;
    case PatternKind::kConstant:
      return v == values_[0];
    case PatternKind::kRange:
      return values_[0] <= v && v <= values_[1];
    case PatternKind::kEnumList:
      return std::binary_search(values_.begin(), values_.end(), v);
    case PatternKind::kEmpty:
      return false;
  }
  return false;
}

Pattern Pattern::And(const Pattern& a, const Pattern& b) {
  if (a.IsEmpty() || b.IsEmpty()) return Empty();
  if (a.IsWildcard()) return b;
  if (b.IsWildcard()) return a;

  // A constant intersects with anything via a membership test.
  if (a.kind_ == PatternKind::kConstant) {
    return b.Matches(a.values_[0]) ? a : Empty();
  }
  if (b.kind_ == PatternKind::kConstant) {
    return a.Matches(b.values_[0]) ? b : Empty();
  }

  if (a.kind_ == PatternKind::kRange && b.kind_ == PatternKind::kRange) {
    const Value& lo = std::max(a.values_[0], b.values_[0]);
    const Value& hi = std::min(a.values_[1], b.values_[1]);
    return Range(lo, hi);
  }

  // Enumeration list against range or enumeration list: filter members.
  const Pattern& en = (a.kind_ == PatternKind::kEnumList) ? a : b;
  const Pattern& other = (a.kind_ == PatternKind::kEnumList) ? b : a;
  std::vector<Value> kept;
  for (const Value& v : en.values_) {
    if (other.Matches(v)) kept.push_back(v);
  }
  return EnumList(std::move(kept));
}

bool Pattern::Covers(const Pattern& outer, const Pattern& inner) {
  if (inner.IsEmpty() || outer.IsWildcard()) return true;
  if (outer.IsEmpty()) return false;
  switch (inner.kind_) {
    case PatternKind::kWildcard:
      return false;  // outer is not a wildcard here
    case PatternKind::kConstant:
      return outer.Matches(inner.values_[0]);
    case PatternKind::kRange:
      // Ranges are continuous; only another range (or wildcard) can cover one.
      return outer.kind_ == PatternKind::kRange &&
             outer.values_[0] <= inner.values_[0] &&
             inner.values_[1] <= outer.values_[1];
    case PatternKind::kEnumList:
      return std::all_of(
          inner.values_.begin(), inner.values_.end(),
          [&outer](const Value& v) { return outer.Matches(v); });
    case PatternKind::kEmpty:
      return true;
  }
  return false;
}

size_t Pattern::ByteSize() const {
  size_t total = sizeof(Pattern);
  for (const auto& v : values_) total += v.ByteSize();
  return total;
}

std::string Pattern::ToString() const {
  switch (kind_) {
    case PatternKind::kWildcard:
      return "*";
    case PatternKind::kConstant:
      return values_[0].ToString();
    case PatternKind::kRange: {
      std::string out = "[";
      out += values_[0].ToString();
      out += ", ";
      out += values_[1].ToString();
      out += "]";
      return out;
    }
    case PatternKind::kEnumList: {
      std::ostringstream os;
      os << "{";
      for (size_t i = 0; i < values_.size(); ++i) {
        if (i > 0) os << ", ";
        os << values_[i].ToString();
      }
      os << "}";
      return os.str();
    }
    case PatternKind::kEmpty:
      return "()";
  }
  return "?";
}

}  // namespace pjoin

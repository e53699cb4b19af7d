#include "punct/punctuation.h"

#include <sstream>

#include "common/macros.h"

namespace pjoin {

Punctuation::Punctuation(std::vector<Pattern> patterns)
    : patterns_(std::move(patterns)) {}

Punctuation Punctuation::ForAttribute(size_t num_fields, size_t attr,
                                      Pattern pattern) {
  PJOIN_DCHECK(attr < num_fields);
  std::vector<Pattern> patterns(num_fields, Pattern::Wildcard());
  patterns[attr] = std::move(pattern);
  return Punctuation(std::move(patterns));
}

Punctuation LiftToJoinOutput(int side, const Punctuation& punct,
                             size_t left_width, size_t right_width,
                             size_t left_key, size_t right_key) {
  std::vector<Pattern> patterns(left_width + right_width,
                                Pattern::Wildcard());
  if (side == 0) {
    for (size_t i = 0; i < left_width; ++i) patterns[i] = punct.pattern(i);
    patterns[left_width + right_key] = punct.pattern(left_key);
  } else {
    for (size_t i = 0; i < right_width; ++i) {
      patterns[left_width + i] = punct.pattern(i);
    }
    patterns[left_key] = punct.pattern(right_key);
  }
  return Punctuation(std::move(patterns));
}

Punctuation Punctuation::And(const Punctuation& a, const Punctuation& b) {
  PJOIN_DCHECK(a.num_patterns() == b.num_patterns());
  std::vector<Pattern> patterns;
  patterns.reserve(a.num_patterns());
  for (size_t i = 0; i < a.num_patterns(); ++i) {
    patterns.push_back(Pattern::And(a.patterns_[i], b.patterns_[i]));
  }
  return Punctuation(std::move(patterns));
}

const Pattern& Punctuation::pattern(size_t i) const {
  PJOIN_DCHECK(i < patterns_.size());
  return patterns_[i];
}

bool Punctuation::Matches(const Tuple& t) const {
  PJOIN_DCHECK(t.num_fields() == patterns_.size());
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (!patterns_[i].Matches(t.field(i))) return false;
  }
  return true;
}

bool Punctuation::IsEmpty() const {
  for (const auto& p : patterns_) {
    if (p.IsEmpty()) return true;
  }
  return false;
}

bool Punctuation::IsAllWildcard() const {
  for (const auto& p : patterns_) {
    if (!p.IsWildcard()) return false;
  }
  return true;
}

size_t Punctuation::ByteSize() const {
  size_t total = sizeof(Punctuation);
  for (const auto& p : patterns_) total += p.ByteSize();
  return total;
}

std::string Punctuation::ToString() const {
  std::ostringstream os;
  os << "<";
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (i > 0) os << ", ";
    os << patterns_[i].ToString();
  }
  os << ">";
  return os.str();
}

}  // namespace pjoin

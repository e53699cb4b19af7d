#include "punct/punctuation_set.h"

#include <algorithm>

#include "common/macros.h"

namespace pjoin {

PunctuationSet::PunctuationSet(size_t attr_index, bool validate_prefix)
    : attr_index_(attr_index), validate_prefix_(validate_prefix) {}

bool PunctuationSet::PrefixOk(const Punctuation& punct) const {
  const Pattern& incoming = punct.pattern(attr_index_);
  for (const auto& [pid, entry] : entries_) {
    const Pattern& prior = entry.punct.pattern(attr_index_);
    const Pattern conj = Pattern::And(prior, incoming);
    if (!conj.IsEmpty() && conj != prior) return false;
  }
  return true;
}

Result<int64_t> PunctuationSet::Add(Punctuation punct, TimeMicros arrival) {
  PJOIN_DCHECK(attr_index_ < punct.num_patterns());
  if (validate_prefix_ && !PrefixOk(punct)) {
    return Status::FailedPrecondition(
        "punctuation violates the prefix condition: " + punct.ToString());
  }
  const int64_t pid = next_pid_++;
  const Pattern& attr_pattern = punct.pattern(attr_index_);
  if (attr_pattern.IsConstant()) {
    constant_index_[attr_pattern.constant()].push_back(pid);
  } else {
    nonconstant_pids_.push_back(pid);
  }
  PunctEntry entry;
  entry.pid = pid;
  entry.arrival = arrival;
  entry.key_only = true;
  for (size_t i = 0; i < punct.num_patterns(); ++i) {
    if (i != attr_index_ && !punct.pattern(i).IsWildcard()) {
      entry.key_only = false;
      break;
    }
  }
  if (entry.key_only) {
    if (attr_pattern.IsConstant()) {
      covered_constants_.insert(attr_pattern.constant());
    } else if (!attr_pattern.IsEmpty()) {
      covered_patterns_.push_back(attr_pattern);
    }
  }
  entry.punct = std::move(punct);
  entries_.emplace(pid, std::move(entry));
  unapplied_purge_pids_.push_back(pid);
  unindexed_pids_.push_back(pid);
  return pid;
}

std::vector<int64_t> PunctuationSet::TakeUnappliedForPurge() {
  std::vector<int64_t> pids = std::move(unapplied_purge_pids_);
  unapplied_purge_pids_.clear();
  for (int64_t pid : pids) {
    PunctEntry* entry = Find(pid);
    if (entry != nullptr) entry->purge_applied = true;
  }
  return pids;
}

std::vector<int64_t> PunctuationSet::TakeUnindexed() {
  std::vector<int64_t> pids = std::move(unindexed_pids_);
  unindexed_pids_.clear();
  return pids;
}

bool PunctuationSet::SetMatch(const Tuple& t) const {
  auto it = constant_index_.find(t.field(attr_index_));
  if (it != constant_index_.end()) {
    for (int64_t pid : it->second) {
      const PunctEntry* entry = Find(pid);
      PJOIN_DCHECK(entry != nullptr);
      if (entry->punct.Matches(t)) return true;
    }
  }
  for (int64_t pid : nonconstant_pids_) {
    const PunctEntry* entry = Find(pid);
    PJOIN_DCHECK(entry != nullptr);
    if (entry->punct.Matches(t)) return true;
  }
  return false;
}

bool PunctuationSet::SetMatchKey(const Value& join_value) const {
  if (covered_constants_.count(join_value) > 0) return true;
  for (const Pattern& p : covered_patterns_) {
    if (p.Matches(join_value)) return true;
  }
  return false;
}

PunctEntry* PunctuationSet::FindFirstMatch(const Tuple& t) {
  int64_t best = kNullPid;
  auto it = constant_index_.find(t.field(attr_index_));
  if (it != constant_index_.end()) {
    for (int64_t pid : it->second) {
      PunctEntry* entry = Find(pid);
      PJOIN_DCHECK(entry != nullptr);
      if (entry->punct.Matches(t) && (best == kNullPid || pid < best)) {
        best = pid;
      }
    }
  }
  for (int64_t pid : nonconstant_pids_) {
    PunctEntry* entry = Find(pid);
    PJOIN_DCHECK(entry != nullptr);
    if (entry->punct.Matches(t) && (best == kNullPid || pid < best)) {
      best = pid;
    }
  }
  return best == kNullPid ? nullptr : Find(best);
}

PunctEntry* PunctuationSet::Find(int64_t pid) {
  auto it = entries_.find(pid);
  return it == entries_.end() ? nullptr : &it->second;
}

const PunctEntry* PunctuationSet::Find(int64_t pid) const {
  auto it = entries_.find(pid);
  return it == entries_.end() ? nullptr : &it->second;
}

void PunctuationSet::Remove(int64_t pid) {
  auto it = entries_.find(pid);
  if (it == entries_.end()) return;
  const Pattern& attr_pattern = it->second.punct.pattern(attr_index_);
  if (attr_pattern.IsConstant()) {
    auto ci = constant_index_.find(attr_pattern.constant());
    if (ci != constant_index_.end()) {
      auto& pids = ci->second;
      pids.erase(std::remove(pids.begin(), pids.end(), pid), pids.end());
      if (pids.empty()) constant_index_.erase(ci);
    }
  } else {
    nonconstant_pids_.erase(
        std::remove(nonconstant_pids_.begin(), nonconstant_pids_.end(), pid),
        nonconstant_pids_.end());
  }
  entries_.erase(it);
}

std::vector<int64_t> PunctuationSet::PidsInOrder() const {
  std::vector<int64_t> pids;
  pids.reserve(entries_.size());
  for (const auto& [pid, entry] : entries_) pids.push_back(pid);
  return pids;
}

size_t PunctuationSet::ByteSize() const {
  size_t total = sizeof(PunctuationSet);
  for (const auto& [pid, entry] : entries_) {
    total += sizeof(PunctEntry) + entry.punct.ByteSize();
  }
  for (const auto& v : covered_constants_) total += v.ByteSize();
  for (const auto& p : covered_patterns_) total += p.ByteSize();
  return total;
}

}  // namespace pjoin

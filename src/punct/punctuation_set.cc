#include "punct/punctuation_set.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

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
      CoverConstant(attr_pattern.constant());
    } else if (!attr_pattern.IsEmpty()) {
      covered_patterns_.push_back(attr_pattern);
    }
    unapplied_purge_patterns_.push_back(attr_pattern);
  }
  entry.punct = std::move(punct);
  entries_.emplace(pid, std::move(entry));
  unindexed_pids_.push_back(pid);
  return pid;
}

bool PunctuationSet::CoversConstant(const Value& constant,
                                    uint64_t hash) const {
  if (covered_slots_.empty()) return false;
  const size_t mask = covered_slots_.size() - 1;
  // At most half the slots are taken, so the probe reaches a free one.
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    const CoveredSlot& slot = covered_slots_[i];
    if (slot.value_pos == 0) return false;
    if (slot.hash == hash && covered_values_[slot.value_pos - 1] == constant) {
      return true;
    }
  }
}

void PunctuationSet::CoverConstant(const Value& constant) {
  const uint64_t hash = constant.Hash();
  if (CoversConstant(constant, hash)) return;
  PJOIN_DCHECK(covered_values_.size() < UINT32_MAX);
  if (2 * (covered_values_.size() + 1) > covered_slots_.size()) {
    // Double the table (16 slots at first) and re-place every constant.
    const size_t slots = std::max<size_t>(16, 2 * covered_slots_.size());
    std::vector<CoveredSlot> old =
        std::exchange(covered_slots_, std::vector<CoveredSlot>(slots));
    covered_shift_ = 64 - std::countr_zero(slots);
    for (const CoveredSlot& slot : old) {
      if (slot.value_pos != 0) PlaceCovered(slot);
    }
  }
  covered_values_.push_back(constant);
  PlaceCovered({hash, static_cast<uint32_t>(covered_values_.size())});
}

void PunctuationSet::PlaceCovered(CoveredSlot slot) {
  const size_t mask = covered_slots_.size() - 1;
  size_t i = HomeSlot(slot.hash);
  while (covered_slots_[i].value_pos != 0) i = (i + 1) & mask;
  covered_slots_[i] = slot;
}

std::vector<Pattern> PunctuationSet::TakeUnappliedForPurge() {
  std::vector<Pattern> patterns = std::move(unapplied_purge_patterns_);
  unapplied_purge_patterns_.clear();
  return patterns;
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

bool PunctuationSet::SetMatchKey(const Value& join_value,
                                 uint64_t key_hash) const {
  if (CoversConstant(join_value, key_hash)) return true;
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
  total += covered_slots_.size() * sizeof(CoveredSlot);
  for (const auto& v : covered_values_) total += v.ByteSize();
  for (const auto& p : covered_patterns_) total += p.ByteSize();
  for (const auto& p : unapplied_purge_patterns_) total += p.ByteSize();
  return total;
}

}  // namespace pjoin

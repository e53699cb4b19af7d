#include "join/punct_index.h"

#include "common/macros.h"

namespace pjoin {

int64_t PunctuationIndexer::BuildIndex(PunctuationSet* ps, HashState* state,
                                       CounterSet* counters) {
  // Select the punctuations not yet used for indexing (Fig 3, lines 3-6);
  // the set keeps them queued so this does not rescan all punctuations.
  std::vector<PunctEntry*> index_set;
  for (int64_t pid : ps->TakeUnindexed()) {
    PunctEntry* entry = ps->Find(pid);
    if (entry != nullptr && !entry->indexed) index_set.push_back(entry);
  }
  if (counters != nullptr) counters->Add("index_scans");
  if (index_set.empty()) return 0;

  int64_t assignments = 0;
  int64_t scanned = 0;
  auto index_entries = [&](std::vector<TupleEntry>& entries) {
    for (TupleEntry& t : entries) {
      ++scanned;
      if (t.pid != kNullPid) continue;
      for (PunctEntry* p : index_set) {
        if (p->punct.Matches(t.tuple)) {
          t.pid = p->pid;
          ++p->match_count;
          ++assignments;
          break;
        }
      }
    }
  };

  for (int p = 0; p < state->num_partitions(); ++p) {
    index_entries(state->memory(p));
    // The purge buffer is still part of the state (its tuples can produce
    // further results against the opposite disk portion), so it must hold
    // propagation back as well.
    index_entries(state->purge_buffer(p));
  }

  for (PunctEntry* p : index_set) p->indexed = true;
  if (counters != nullptr) {
    counters->Add("index_scanned_tuples", scanned);
    counters->Add("index_assignments", assignments);
  }
  return assignments;
}

void PunctuationIndexer::IndexEntry(PunctuationSet* ps, TupleEntry* entry) {
  if (entry->pid != kNullPid) return;
  PunctEntry* match = ps->FindFirstMatch(entry->tuple);
  if (match != nullptr) {
    entry->pid = match->pid;
    ++match->match_count;
  }
}

void PunctuationIndexer::OnEntryDiscarded(PunctuationSet* ps,
                                          const TupleEntry& entry) {
  if (entry.pid == kNullPid) return;
  PunctEntry* p = ps->Find(entry.pid);
  // The punctuation must still be present: it cannot have been propagated
  // while this entry contributed to its count.
  PJOIN_DCHECK(p != nullptr);
  --p->match_count;
  PJOIN_DCHECK(p->match_count >= 0);
}

std::vector<Punctuation> Propagator::Propagate(PunctuationSet* ps) {
  std::vector<Punctuation> released;
  std::vector<const Punctuation*> blocked;
  std::vector<int64_t> released_pids;
  ps->ForEach([&](PunctEntry& entry) {
    bool overlap_blocked = false;
    for (const Punctuation* b : blocked) {
      if (!Punctuation::And(*b, entry.punct).IsEmpty()) {
        overlap_blocked = true;
        break;
      }
    }
    if (entry.indexed && entry.match_count == 0 && !overlap_blocked) {
      released.push_back(entry.punct);
      released_pids.push_back(entry.pid);
    } else {
      blocked.push_back(&entry.punct);
    }
  });
  for (int64_t pid : released_pids) ps->Remove(pid);
  return released;
}

}  // namespace pjoin

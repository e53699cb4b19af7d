#include "ops/release_board.h"

#include <algorithm>

#include "common/macros.h"

namespace pjoin {

PunctReleaseBoard::PunctReleaseBoard(int num_shards)
    : num_shards_(num_shards) {
  PJOIN_DCHECK(num_shards > 0);
}

void PunctReleaseBoard::NoteDispatch(const Punctuation& p, int shard) {
  PJOIN_DCHECK(shard < num_shards_);
  Round round;
  round.waiting.assign(static_cast<size_t>(num_shards_), shard < 0);
  if (shard >= 0) round.waiting[static_cast<size_t>(shard)] = true;
  round.shards = shard < 0 ? num_shards_ : 1;
  round.remaining = round.shards;
  open_[p.ToString()].push_back(std::move(round));
}

int PunctReleaseBoard::Release(const Punctuation& p, int shard) {
  const size_t s = static_cast<size_t>(shard);
  const auto it = open_.find(p.ToString());
  PJOIN_DCHECK(it != open_.end());
  std::deque<Round>& rounds = it->second;
  const auto round = std::find_if(
      rounds.begin(), rounds.end(),
      [s](const Round& r) { return r.waiting[s]; });
  // A shard releases only what the router dispatched to it.
  PJOIN_DCHECK(round != rounds.end());
  round->waiting[s] = false;
  --round->remaining;
  if (round->remaining == round->shards - 1 && round->remaining > 0) {
    ++pending_;  // first release of a multi-shard round
  } else if (round->remaining == 0 && round->shards > 1) {
    --pending_;  // last release
  }
  // Emit completed rounds in dispatch order: a complete round behind an
  // open one waits, since the open round's shards may still hold results
  // the shared string covers.
  int completed = 0;
  while (!rounds.empty() && rounds.front().remaining == 0) {
    rounds.pop_front();
    ++completed;
  }
  if (rounds.empty()) open_.erase(it);
  return completed;
}

}  // namespace pjoin

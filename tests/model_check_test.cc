// Model-check suites for the lock-free spine (ISSUE 8).
//
// Three layers, each proving the one above it:
//
//   SchedulerSelfTest  — the harness itself is load-bearing: it CATCHES a
//                        planted relaxed-publication race, a planted
//                        check-then-wait lost wakeup, and the Dekker
//                        store-buffer reordering under TSO — and stays
//                        green on the corrected versions.
//   SpscRingModel      — SpscRing<_, mc::ModelPolicy>: FIFO with no lost
//                        or duplicated elements across push/pop/Close/
//                        drain, no park/unpark deadlock, occupancy never
//                        exceeds capacity — exhaustively within the
//                        preemption bound for 2 threads at small sizes,
//                        plus a TSO pass. Under -DPJOIN_MC_MUTATE (CI's
//                        inverted build) these tests MUST fail with a
//                        "data race" report — that is the mutation
//                        self-test.
//   ReleaseBoardModel  — the shard-release → merger-drain → board protocol
//                        emits every recorded round exactly once
//                        (key-routed rounds to 1 shard, broadcast rounds to
//                        N) and never before each of its shards released
//                        it, under every interleaving, using the real
//                        merger's activity-eventcount final-drain loop.
//
// Every Explore prints its "[MC] ..." summary line; the CI model-check job
// pipes test output through tools/mc_report.py, which aggregates
// schedule/state counts and enforces that the exhaustive suites really
// were exhaustive.
//
// All model state lives on the body's fiber stack so each explored
// schedule starts from a fresh protocol state.

#include "check/model_atomic.h"

#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/scheduler.h"
#include "common/spsc_ring.h"
#include "ops/release_board.h"
#include "punct/pattern.h"
#include "punct/punctuation.h"

namespace pjoin {
namespace {

using ModelRing = SpscRing<int64_t, mc::ModelPolicy>;

mc::ExploreResult RunExplore(const mc::ExploreOptions& options,
                          const std::function<void()>& body) {
  mc::ExploreResult r = mc::Explore(options, body);
  std::cout << r.Summary() << std::endl;
  return r;
}

#define EXPECT_MC_OK(r) EXPECT_FALSE((r).failed) << (r).TraceString()
#define EXPECT_MC_EXHAUSTIVE(r) \
  EXPECT_TRUE((r).exhaustive) << "DFS truncated: " << (r).Summary()
#define EXPECT_MC_CATCHES(r, needle)                                   \
  do {                                                                 \
    EXPECT_TRUE((r).failed) << "checker missed a planted bug";         \
    EXPECT_NE((r).failure.find(needle), std::string::npos)             \
        << "unexpected failure kind: " << (r).failure;                 \
  } while (0)

// ---------------------------------------------------------------------------
// SchedulerSelfTest — prove the checker catches what it claims to catch.
// ---------------------------------------------------------------------------

TEST(SchedulerSelfTest, CatchesRelaxedPublicationRace) {
  mc::ExploreOptions opts;
  opts.label = "self_relaxed_race";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] {
    mc::atomic<int> flag{0};
    mc::Cell<int64_t> cell;
    cell.Store(0);  // publisher-side init
    mc::Thread reader([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        int64_t v = 0;
        cell.MoveTo(&v);  // no HB edge: the publish was relaxed
      }
    });
    cell.Store(42);
    flag.store(1, std::memory_order_relaxed);  // BUG: must be release
    reader.join();
  });
  EXPECT_MC_CATCHES(r, "data race");
}

TEST(SchedulerSelfTest, AcceptsReleasePublication) {
  mc::ExploreOptions opts;
  opts.label = "self_release_ok";
  opts.max_preemptions = -1;  // tiny body: fully exhaustive
  auto r = RunExplore(opts, [] {
    mc::atomic<int> flag{0};
    mc::Cell<int64_t> cell;
    cell.Store(0);
    mc::Thread reader([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        int64_t v = 0;
        cell.MoveTo(&v);
        mc::Check(v == 42, "published value visible");
      }
    });
    cell.Store(42);
    flag.store(1, std::memory_order_release);
    reader.join();
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// The reason SpscRing::WaitForData re-checks ring state AFTER loading the
// eventcount: check-then-load-then-wait loses the wakeup when the
// producer's bump lands entirely between the check and the wait.
TEST(SchedulerSelfTest, CatchesCheckThenWaitLostWakeup) {
  mc::ExploreOptions opts;
  opts.label = "self_lost_wakeup";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] {
    mc::atomic<int> ready{0};
    mc::atomic<uint32_t> seq{0};
    mc::Thread producer([&] {
      ready.store(1, std::memory_order_release);
      seq.fetch_add(1, std::memory_order_release);
      seq.notify_one();
    });
    // BUG: the ready check precedes the seq load; a producer running
    // entirely in between leaves us waiting on the already-bumped value.
    if (ready.load(std::memory_order_acquire) == 0) {
      const uint32_t s = seq.load(std::memory_order_acquire);
      seq.wait(s, std::memory_order_acquire);
    }
    producer.join();
  });
  EXPECT_MC_CATCHES(r, "deadlock");
}

TEST(SchedulerSelfTest, EventcountProtocolNeverDeadlocks) {
  mc::ExploreOptions opts;
  opts.label = "self_eventcount_ok";
  opts.max_preemptions = -1;
  auto r = RunExplore(opts, [] {
    mc::atomic<int> ready{0};
    mc::atomic<uint32_t> seq{0};
    mc::Thread producer([&] {
      ready.store(1, std::memory_order_release);
      seq.fetch_add(1, std::memory_order_release);
      seq.notify_one();
    });
    // Correct eventcount order: load the count, THEN re-check, then wait
    // on the loaded value — the bump either precedes the re-check (seen)
    // or follows the load (wait returns on the changed value).
    const uint32_t s = seq.load(std::memory_order_acquire);
    if (ready.load(std::memory_order_acquire) == 0) {
      seq.wait(s, std::memory_order_acquire);
    }
    producer.join();
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// Dekker's handshake: without store buffers one of the two loads must see
// a 1; with TSO buffering both stores can sit unflushed past both loads.
void DekkerBody() {
  mc::atomic<int> x{0};
  mc::atomic<int> y{0};
  mc::atomic<int> r0{-1};
  mc::Thread peer([&] {
    y.store(1, std::memory_order_release);
    r0.store(x.load(std::memory_order_acquire), std::memory_order_release);
  });
  x.store(1, std::memory_order_release);
  const int r1 = y.load(std::memory_order_acquire);
  peer.join();
  mc::Check(r0.load(std::memory_order_acquire) == 1 || r1 == 1,
            "dekker: both loads saw 0 (store-buffer reordering)");
}

TEST(SchedulerSelfTest, DekkerPassesWithoutStoreBuffers) {
  mc::ExploreOptions opts;
  opts.label = "self_dekker_sc";
  opts.max_preemptions = -1;
  opts.tso = false;
  auto r = RunExplore(opts, DekkerBody);
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

TEST(SchedulerSelfTest, DekkerCaughtUnderTso) {
  mc::ExploreOptions opts;
  opts.label = "self_dekker_tso";
  opts.max_preemptions = 2;
  opts.tso = true;
  auto r = RunExplore(opts, DekkerBody);
  EXPECT_MC_CATCHES(r, "dekker");
}

// ---------------------------------------------------------------------------
// SpscRingModel — the tentpole: the real ring code under the model policy.
// Under -DPJOIN_MC_MUTATE the producer's tail publish is relaxed and every
// test here MUST fail with a "data race on mc::Cell" report (CI asserts
// both directions).
// ---------------------------------------------------------------------------

// Producer pushes 1..n and closes; consumer drains with PopBlocking.
// Checks, across every explored interleaving: strict FIFO, no loss, no
// duplication, occupancy bounded by capacity as observed from both
// endpoints, and no deadlock in the park/unpark paths (a lost wakeup
// shows up as deadlock).
void RingFifoBody(size_t capacity, int64_t n) {
  ModelRing ring = ModelRing::WithExactCapacity(capacity);
  mc::Thread producer([&] {
    for (int64_t i = 1; i <= n; ++i) {
      ring.PushBlocking(int64_t{i});
      mc::Check(ring.size() <= ring.capacity(),
                "producer-side occupancy exceeds capacity");
    }
    ring.Close();
  });
  int64_t expect = 1;
  int64_t v = 0;
  while (ring.PopBlocking(&v)) {
    mc::Check(v == expect, "FIFO order broken (lost or duplicated element)");
    mc::Check(ring.size() <= ring.capacity(),
              "consumer-side occupancy exceeds capacity");
    ++expect;
  }
  mc::Check(expect == n + 1, "ring exhausted before all elements arrived");
  mc::Check(ring.exhausted(), "PopBlocking returned false before close");
  producer.join();
}

TEST(SpscRingModel, FifoExhaustiveCapacity2) {
  mc::ExploreOptions opts;
  opts.label = "ring_fifo_cap2";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] { RingFifoBody(2, 6); });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

TEST(SpscRingModel, FifoExhaustiveCapacity4) {
  mc::ExploreOptions opts;
  opts.label = "ring_fifo_cap4";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] { RingFifoBody(4, 8); });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// Capacity 1 is the tightest park/unpark window: every push crosses the
// full boundary and every pop crosses the empty boundary, so both sides
// exercise the eventcount wait on nearly every operation. A deeper
// preemption bound compensates for the shorter op sequence.
TEST(SpscRingModel, FifoExhaustiveCapacity1DeepBound) {
  mc::ExploreOptions opts;
  opts.label = "ring_fifo_cap1";
  opts.max_preemptions = 3;
#ifdef NDEBUG
  // 290k schedules / 49M states: fine at -O2 (~8s), ~3min at -O0. The
  // Debug CI leg runs the smaller sweep below — still exhaustive within
  // the bound, so the mc_report gate holds in both legs; the full-depth
  // proof comes from the Release leg.
  constexpr int kOps = 4;
#else
  constexpr int kOps = 3;
#endif
  auto r = RunExplore(opts, [] { RingFifoBody(1, kOps); });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// Satellite: Close() racing the consumer's drain at capacity 1 — the
// consumer must see every pushed element even when Close lands between
// its TryPop and its park decision. TryPush (not PushBlocking) keeps the
// producer non-blocking so Close can land at any point of the pop path.
TEST(SpscRingModel, CloseRacingPopDrainsCapacityOne) {
  mc::ExploreOptions opts;
  opts.label = "ring_close_race_cap1";
  opts.max_preemptions = 3;
  auto r = RunExplore(opts, [] {
    ModelRing ring = ModelRing::WithExactCapacity(1);
    mc::atomic<int64_t> pushed{0};
    mc::Thread producer([&] {
      for (int64_t i = 1; i <= 3; ++i) {
        if (!ring.TryPush(int64_t{i})) break;  // full: consumer lags; stop
        pushed.store(i, std::memory_order_release);
      }
      ring.Close();
    });
    int64_t seen = 0;
    int64_t v = 0;
    while (ring.PopBlocking(&v)) {
      mc::Check(v == seen + 1, "drain skipped or duplicated an element");
      seen = v;
    }
    producer.join();
    mc::Check(seen == pushed.load(std::memory_order_acquire),
              "elements pushed before Close were lost in the drain");
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// TSO pass: the ring's acquire/release protocol must hold when relaxed and
// release stores are delayed in per-thread store buffers (x86-style). The
// flush choices multiply the schedule space, so this uses a smaller config
// plus random walks beyond the DFS bound.
TEST(SpscRingModel, FifoUnderTsoStoreBuffers) {
  mc::ExploreOptions opts;
  opts.label = "ring_fifo_tso";
  opts.max_preemptions = 2;
  opts.tso = true;
  // Flush branching makes full DFS ~1M schedules; sample a large bounded
  // prefix plus unbounded random walks to stay inside the CI budget
  // (smaller sample at -O0 — the Release leg runs the big one).
#ifdef NDEBUG
  opts.max_schedules = 150000;
  opts.random_walks = 500;
#else
  opts.max_schedules = 20000;
  opts.random_walks = 100;
#endif
  auto r = RunExplore(opts, [] { RingFifoBody(2, 4); });
  EXPECT_MC_OK(r);
}

// ---------------------------------------------------------------------------
// ReleaseBoardModel — shard releases → ring → merger drain → exactly-once
// emission, using the real merger's activity-eventcount final-drain loop.
// ---------------------------------------------------------------------------

Punctuation RoutedPunct() {
  return Punctuation(
      {Pattern::Constant(Value(int64_t{7})), Pattern::Wildcard()});
}

Punctuation BroadcastPunct() {
  return Punctuation({Pattern::Wildcard(), Pattern::Wildcard()});
}

// Two shards feed punctuation releases through capacity-1 rings; the
// merger (model thread 0) drains exactly as ParallelJoinPipeline's final
// drain does: load the activity count, sweep all rings, re-check
// exhaustion, park on the loaded value. Every round goes to `target`
// (negative: both shards), recorded on the board before the shards start,
// as the router records a round before staging it.
void BoardBody(const Punctuation& punct, int target, int rounds,
               int64_t expected_emissions) {
  constexpr int kShards = 2;
  using PunctRing = SpscRing<Punctuation, mc::ModelPolicy>;
  PunctReleaseBoard board(kShards);
  for (int rd = 0; rd < rounds; ++rd) board.NoteDispatch(punct, target);

  PunctRing ring0 = PunctRing::WithExactCapacity(1);
  PunctRing ring1 = PunctRing::WithExactCapacity(1);
  PunctRing* rings[kShards] = {&ring0, &ring1};
  mc::atomic<uint32_t> activity{0};
  auto in_round = [target](int s) { return target < 0 || s == target; };

  std::vector<std::unique_ptr<mc::Thread>> shards;
  for (int s = 0; s < kShards; ++s) {
    const bool releasing = in_round(s);
    shards.push_back(std::make_unique<mc::Thread>([&, s, releasing] {
      if (releasing) {
        for (int rd = 0; rd < rounds; ++rd) {
          rings[s]->PushBlocking(Punctuation(punct));
          // Push first, then bump: a merger that re-drained after loading
          // the count cannot miss the batch (FlushShardOut's order).
          activity.fetch_add(1, std::memory_order_release);
          activity.notify_all();
        }
      }
      rings[s]->Close();
      activity.fetch_add(1, std::memory_order_release);  // "once on exit"
      activity.notify_all();
    }));
  }

  int64_t emitted = 0;
  int64_t popped[kShards] = {0, 0};
  for (;;) {
    const uint32_t seq = activity.load(std::memory_order_acquire);
    size_t merged = 0;
    bool all_exhausted = true;
    for (int s = 0; s < kShards; ++s) {
      Punctuation p;
      while (rings[s]->TryPop(&p)) {
        ++popped[s];
        for (int n = board.Release(p, s); n > 0; --n) {
          ++emitted;
          // §3.3: the k-th emission needs every shard of the round to have
          // released k times — one shard's releases never stand in for
          // another's.
          for (int t = 0; t < kShards; ++t) {
            mc::Check(!in_round(t) || popped[t] >= emitted,
                      "punctuation emitted before all its shards released");
          }
        }
        ++merged;
      }
      if (!rings[s]->exhausted()) all_exhausted = false;
    }
    mc::Check(emitted <= expected_emissions,
              "punctuation emitted more than once per round");
    if (all_exhausted) break;
    if (merged == 0) activity.wait(seq, std::memory_order_acquire);
  }
  for (auto& t : shards) t->join();

  mc::Check(emitted == expected_emissions,
            "punctuation emission count != expected (lost or early release)");
  mc::Check(board.pending_rounds() == 0,
            "board left a partially released round");
}

TEST(ReleaseBoardModel, KeyRoutedFiresExactlyOnce) {
  mc::ExploreOptions opts;
  opts.label = "board_routed";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] {
    BoardBody(RoutedPunct(), /*target=*/0, /*rounds=*/1,
              /*expected_emissions=*/1);
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

TEST(ReleaseBoardModel, BroadcastFiresOncePerFullRound) {
  mc::ExploreOptions opts;
  opts.label = "board_broadcast";
  opts.max_preemptions = 2;
  auto r = RunExplore(opts, [] {
    BoardBody(BroadcastPunct(), /*target=*/-1, /*rounds=*/1,
              /*expected_emissions=*/1);
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

TEST(ReleaseBoardModel, RecurringPunctuationEmitsPerRound) {
  mc::ExploreOptions opts;
  opts.label = "board_recurring";
  opts.max_preemptions = 1;
  auto r = RunExplore(opts, [] {
    BoardBody(BroadcastPunct(), /*target=*/-1, /*rounds=*/2,
              /*expected_emissions=*/2);
  });
  EXPECT_MC_OK(r);
  EXPECT_MC_EXHAUSTIVE(r);
}

// Sequential board semantics (no threads): each release is credited to its
// shard's oldest open round of the string, and rounds of one string are
// emitted in dispatch order.
TEST(ReleaseBoardModel, CreditsEachShardsOldestRoundInDispatchOrder) {
  PunctReleaseBoard board(/*num_shards=*/3);
  const Punctuation p = BroadcastPunct();

  // Two all-shard rounds: shard 0's second release must not stand in for
  // the other shards' first.
  board.NoteDispatch(p, -1);
  board.NoteDispatch(p, -1);
  EXPECT_EQ(board.Release(p, 0), 0);
  EXPECT_EQ(board.Release(p, 0), 0);
  EXPECT_EQ(board.pending_rounds(), 2);
  EXPECT_EQ(board.Release(p, 1), 0);
  EXPECT_EQ(board.Release(p, 2), 1);
  EXPECT_EQ(board.pending_rounds(), 1);
  EXPECT_EQ(board.Release(p, 1), 0);
  EXPECT_EQ(board.Release(p, 2), 1);
  EXPECT_EQ(board.pending_rounds(), 0);

  // One-shard and all-shard rounds of one string: A to shard 2, B to all,
  // C to shard 1.
  board.NoteDispatch(p, 2);
  board.NoteDispatch(p, -1);
  board.NoteDispatch(p, 1);
  EXPECT_EQ(board.Release(p, 1), 0);  // shard 1's oldest round is B
  EXPECT_EQ(board.Release(p, 1), 0);  // C complete, held behind A and B
  EXPECT_EQ(board.Release(p, 0), 0);
  EXPECT_EQ(board.pending_rounds(), 1);  // B; C has all its releases
  EXPECT_EQ(board.Release(p, 2), 1);     // A
  EXPECT_EQ(board.Release(p, 2), 2);     // B, then the held C
  EXPECT_EQ(board.pending_rounds(), 0);

  // A one-shard round completes on its shard's release alone.
  board.NoteDispatch(RoutedPunct(), 0);
  EXPECT_EQ(board.Release(RoutedPunct(), 0), 1);
  EXPECT_EQ(board.pending_rounds(), 0);
}

}  // namespace
}  // namespace pjoin

// Allocation accounting for the parallel pipeline's result path. A result
// leaves its shard as flat values in the shard's out batch, and the merger
// builds its Tuple, so the shard threads allocate per input tuple and per
// out batch, never per result.
//
// This binary replaces the global operator new and counts the allocations
// made on every thread other than the one that calls Run (that thread runs
// the router and the merger). The over-aligned forms keep their library
// definitions: nothing allocated per result is over-aligned.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "join/pjoin.h"
#include "ops/parallel_pipeline.h"
#include "test_util.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_worker_allocs{0};
// Set on the thread that calls Run; every other thread is a worker.
thread_local bool t_runs_pipeline = false;

void* CountedAlloc(std::size_t size) {
  if (g_counting.load() && !t_runs_pipeline) g_worker_allocs.fetch_add(1);
  return std::malloc(size == 0 ? 1 : size);
}

void* CheckedAlloc(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CheckedAlloc(size); }
void* operator new[](std::size_t size) { return CheckedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pjoin {
namespace {

using testing::ElementsBuilder;
using testing::KP;
using testing::KeyPayloadSchema;

// 2,000 tuples per stream over 20 keys and no punctuation before the end:
// every tuple joins with about 100 of the other side's, so results outnumber
// input tuples about fifty to one.
TEST(AllocTest, ShardThreadsDoNotAllocatePerResult) {
  constexpr int64_t kTuplesPerStream = 2000;
  constexpr int64_t kKeys = 20;
  const SchemaPtr left_schema = KeyPayloadSchema("a");
  const SchemaPtr right_schema = KeyPayloadSchema("b");
  ElementsBuilder left;
  ElementsBuilder right;
  std::map<int64_t, int64_t> per_key[2];
  for (int64_t i = 0; i < kTuplesPerStream; ++i) {
    const int64_t lk = (i * 7) % kKeys;
    const int64_t rk = (i * 3 + 1) % kKeys;
    left.Tup(KP(left_schema, lk, i));
    right.Tup(KP(right_schema, rk, -i));
    ++per_key[0][lk];
    ++per_key[1][rk];
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();
  int64_t expected_results = 0;
  for (const auto& [key, n] : per_key[0]) {
    expected_results += n * per_key[1][key];
  }

  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<PJoin>(left_schema, right_schema);
      },
      popts);
  int64_t merged = 0;
  pipeline.set_result_callback([&merged](const Tuple&) { ++merged; });

  t_runs_pipeline = true;
  g_worker_allocs.store(0);
  g_counting.store(true);
  const Status st = pipeline.Run(l, r);
  g_counting.store(false);
  t_runs_pipeline = false;
  ASSERT_TRUE(st.ok()) << st.ToString();

  const int64_t worker_allocs = g_worker_allocs.load();
  EXPECT_EQ(merged, expected_results);
  EXPECT_EQ(pipeline.results_emitted(), expected_results);
  // The shards do allocate (state inserts, out batches), so the counter is
  // live...
  EXPECT_GT(worker_allocs, 0);
  // ...but far less than once per result.
  EXPECT_LT(worker_allocs * 16, merged)
      << worker_allocs << " shard-thread allocations for " << merged
      << " results";
}

}  // namespace
}  // namespace pjoin

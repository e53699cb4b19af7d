// Micro-benchmarks (google-benchmark) for the hot operations: pattern
// matching, punctuation-set probing, memory-join probing, purge scanning,
// index building, tuple-entry serialization, the SPSC ring transport, and
// batched vs per-element join dispatch.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/spsc_ring.h"
#include "gen/stream_generator.h"
#include "join/hash_state.h"
#include "join/pjoin.h"
#include "join/punct_index.h"
#include "punct/punctuation_set.h"
#include "storage/simulated_disk.h"
#include "stream/arrival_merge.h"
#include "tuple/tuple.h"

namespace pjoin {
namespace {

SchemaPtr KP() {
  return Schema::Make({{"key", ValueType::kInt64}, {"p", ValueType::kInt64}});
}

void BM_PatternMatchConstant(benchmark::State& state) {
  Pattern p = Pattern::Constant(Value(int64_t{42}));
  Value v(int64_t{42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Matches(v));
  }
}
BENCHMARK(BM_PatternMatchConstant);

void BM_PatternMatchRange(benchmark::State& state) {
  Pattern p = Pattern::Range(Value(int64_t{10}), Value(int64_t{90}));
  Value v(int64_t{55});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Matches(v));
  }
}
BENCHMARK(BM_PatternMatchRange);

void BM_PatternMatchEnum(benchmark::State& state) {
  std::vector<Value> members;
  for (int64_t i = 0; i < state.range(0); ++i) members.emplace_back(i * 2);
  Pattern p = Pattern::EnumList(members);
  Value v(int64_t{state.range(0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Matches(v));
  }
}
BENCHMARK(BM_PatternMatchEnum)->Arg(4)->Arg(64)->Arg(1024);

void BM_PatternAnd(benchmark::State& state) {
  Pattern a = Pattern::Range(Value(int64_t{0}), Value(int64_t{100}));
  Pattern b = Pattern::Range(Value(int64_t{50}), Value(int64_t{150}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pattern::And(a, b));
  }
}
BENCHMARK(BM_PatternAnd);

void BM_PunctSetMatchKey(benchmark::State& state) {
  PunctuationSet ps(0);
  for (int64_t i = 0; i < state.range(0); ++i) {
    const Result<int64_t> pid = ps.Add(
        Punctuation::ForAttribute(2, 0, Pattern::Constant(Value(i))), i);
    PJOIN_DCHECK(pid.ok());
  }
  Value probe(state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps.SetMatchKey(probe));
  }
}
BENCHMARK(BM_PunctSetMatchKey)->Arg(16)->Arg(256)->Arg(4096);

HashState MakeState(int64_t tuples, int64_t distinct_keys,
                    bool indexed = true) {
  SchemaPtr schema = KP();
  HashState st("bench", schema, 0, 16, std::make_unique<SimulatedDisk>(),
               indexed);
  for (int64_t i = 0; i < tuples; ++i) {
    TupleEntry e;
    e.tuple = Tuple(schema, {Value(i % distinct_keys), Value(i)});
    e.ats = i;
    st.InsertMemory(std::move(e));
  }
  return st;
}

void BM_MemoryProbe(benchmark::State& state) {
  HashState st = MakeState(state.range(0), 20);
  const Value key(int64_t{7});
  const int p = st.PartitionOf(key);
  for (auto _ : state) {
    int64_t matches = 0;
    for (const TupleEntry& e : st.memory(p)) {
      if (st.KeyOf(e.tuple) == key) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(st.memory(p).size()));
}
BENCHMARK(BM_MemoryProbe)->Arg(1000)->Arg(10000)->Arg(100000);

// ---- Scan vs. indexed bucket probe (docs/PERFORMANCE.md) ----
//
// Arg = entries per partition (the state spreads Arg * 16 tuples over its 16
// partitions); 40 distinct keys, so one probe matches ~Arg * 16 / 40 entries.

constexpr int64_t kProbePartitions = 16;
constexpr int64_t kProbeKeys = 40;

void BM_ProbeScanBucket(benchmark::State& state) {
  HashState st = MakeState(state.range(0) * kProbePartitions, kProbeKeys,
                           /*indexed=*/false);
  const Value key(int64_t{7});
  const uint64_t key_hash = key.Hash();
  const int p = st.PartitionOfHash(key_hash);
  for (auto _ : state) {
    int64_t matches = 0;
    benchmark::DoNotOptimize(st.ForEachMemoryMatch(
        p, key, key_hash, [&](const TupleEntry&) { ++matches; }));
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(st.memory(p).size()));
}
BENCHMARK(BM_ProbeScanBucket)->Arg(10)->Arg(100)->Arg(1000);

void BM_ProbeIndexedBucket(benchmark::State& state) {
  HashState st = MakeState(state.range(0) * kProbePartitions, kProbeKeys,
                           /*indexed=*/true);
  const Value key(int64_t{7});
  const uint64_t key_hash = key.Hash();
  const int p = st.PartitionOfHash(key_hash);
  for (auto _ : state) {
    int64_t matches = 0;
    benchmark::DoNotOptimize(st.ForEachMemoryMatch(
        p, key, key_hash, [&](const TupleEntry&) { ++matches; }));
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(st.memory(p).size()));
}
BENCHMARK(BM_ProbeIndexedBucket)->Arg(10)->Arg(100)->Arg(1000);

// The purge scans below share one state and one punctuation set: 10 of the
// 40 keys are covered, so a quarter of the entries would be purged.
PunctuationSet TenKeyPunctuations() {
  PunctuationSet ps(0);
  for (int64_t k = 0; k < 10; ++k) {
    const Result<int64_t> pid = ps.Add(
        Punctuation::ForAttribute(2, 0, Pattern::Constant(Value(k))), k);
    PJOIN_DCHECK(pid.ok());
  }
  return ps;
}

// setMatch by key value: one Value::Hash per entry.
void BM_PurgeScan(benchmark::State& state) {
  const PunctuationSet ps = TenKeyPunctuations();
  HashState st = MakeState(state.range(0), 40);
  for (auto _ : state) {
    int64_t would_purge = 0;
    for (int p = 0; p < st.num_partitions(); ++p) {
      for (const TupleEntry& e : st.memory(p)) {
        if (ps.SetMatchKey(st.KeyOf(e.tuple))) ++would_purge;
      }
    }
    benchmark::DoNotOptimize(would_purge);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PurgeScan)->Arg(1000)->Arg(10000)->Arg(100000);

// setMatch by the entry's cached key hash, the test PJoin's purges run.
void BM_PurgeScanByHash(benchmark::State& state) {
  const PunctuationSet ps = TenKeyPunctuations();
  HashState st = MakeState(state.range(0), 40);
  for (auto _ : state) {
    int64_t would_purge = 0;
    for (int p = 0; p < st.num_partitions(); ++p) {
      for (const TupleEntry& e : st.memory(p)) {
        if (ps.SetMatchKey(st.KeyOf(e.tuple), e.key_hash)) ++would_purge;
      }
    }
    benchmark::DoNotOptimize(would_purge);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PurgeScanByHash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IndexBuild(benchmark::State& state) {
  SchemaPtr schema = KP();
  for (auto _ : state) {
    state.PauseTiming();
    PunctuationSet ps(0);
    for (int64_t k = 0; k < 20; ++k) {
      const Result<int64_t> pid = ps.Add(
          Punctuation::ForAttribute(2, 0, Pattern::Constant(Value(k))), k);
      PJOIN_DCHECK(pid.ok());
    }
    HashState st = MakeState(state.range(0), 40);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        PunctuationIndexer::BuildIndex(&ps, &st, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(10000);

void BM_TupleEntrySerialize(benchmark::State& state) {
  TupleEntry e;
  e.tuple = Tuple(KP(), {Value(int64_t{12345}), Value(int64_t{67890})});
  e.ats = 1;
  e.dts = 2;
  e.pid = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Serialize());
  }
}
BENCHMARK(BM_TupleEntrySerialize);

void BM_TupleEntryDeserialize(benchmark::State& state) {
  SchemaPtr schema = KP();
  TupleEntry e;
  e.tuple = Tuple(schema, {Value(int64_t{12345}), Value(int64_t{67890})});
  const std::string record = e.Serialize();
  for (auto _ : state) {
    auto r = TupleEntry::Deserialize(record, schema);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TupleEntryDeserialize);

// ---- SPSC ring transport (common/spsc_ring.h) ----
//
// The parallel pipeline moves every element over these rings, so the
// per-slot cost bounds the dataflow spine's overhead. Single-threaded
// push/pop is the right microcosting: it isolates the ring's own atomics
// and cache traffic from scheduler noise (the 1-vCPU CI runner cannot
// time genuine cross-core handoff anyway).

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<int64_t> ring(static_cast<size_t>(state.range(0)));
  int64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(int64_t{42}));
    benchmark::DoNotOptimize(ring.TryPop(&out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop)->Arg(64)->Arg(4096);

void BM_SpscRingBurst(benchmark::State& state) {
  // Fill-then-drain at capacity: the worst-case working set (every slot
  // touched) instead of BM_SpscRingPushPop's single hot slot.
  const auto burst = static_cast<size_t>(state.range(0));
  SpscRing<int64_t> ring(burst);
  int64_t out = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.TryPush(static_cast<int64_t>(i)));
    }
    for (size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(ring.TryPop(&out));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(burst));
}
BENCHMARK(BM_SpscRingBurst)->Arg(64)->Arg(4096);

// ---- Batched vs per-element join dispatch (join_base.h ProcessBatch) ----
//
// The same generated element sequence through one PJoin, fed either one
// OnElement at a time (each a one-element batch) or as a single columnar
// ElementBatch with pre-computed key hashes, as a parallel-pipeline shard
// receives it. The batch path leaves hashing to the caller (the router, or
// here the fixture) and flushes hot counters per run of tuples instead of
// per tuple.

struct DispatchFixture {
  GeneratedStreams streams;
  std::vector<const StreamElement*> elements;
  std::vector<int8_t> sides;
  std::vector<uint64_t> hashes;

  explicit DispatchFixture(int64_t tuples) {
    DomainSpec domain;
    domain.window_size = 8192;
    StreamSpec spec;
    spec.num_tuples = tuples;
    spec.punct_mean_interarrival_tuples = 50.0;
    spec.flush_punctuations_at_end = false;
    streams = GenerateStreams(domain, spec, spec, 4242);
    // Interleave the two sides by arrival, as the router would, hashing
    // each tuple's join key once (the batch contract).
    const auto probe = MakeJoin();
    const size_t key_index[2] = {probe->state(0).key_index(),
                                 probe->state(1).key_index()};
    for (ArrivalMerge merge(streams.a, streams.b); !merge.done();) {
      const auto [side, e] = merge.Next();
      elements.push_back(e);
      sides.push_back(static_cast<int8_t>(side));
      hashes.push_back(
          e->is_tuple() ? e->tuple().field(key_index[side]).Hash() : 0);
    }
  }

  std::unique_ptr<PJoin> MakeJoin() const {
    JoinOptions opts;
    opts.num_partitions = 16;
    auto join =
        std::make_unique<PJoin>(streams.schema_a, streams.schema_b, opts);
    join->set_result_callback([](const Tuple&) {});
    return join;
  }
};

void BM_DispatchPerElement(benchmark::State& state) {
  const DispatchFixture fx(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto join = fx.MakeJoin();
    state.ResumeTiming();
    for (size_t i = 0; i < fx.elements.size(); ++i) {
      const Status st = join->OnElement(fx.sides[i], *fx.elements[i]);
      PJOIN_DCHECK(st.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.elements.size()));
}
BENCHMARK(BM_DispatchPerElement)->Arg(2000);

void BM_DispatchBatched(benchmark::State& state) {
  const DispatchFixture fx(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto join = fx.MakeJoin();
    state.ResumeTiming();
    const Status st = join->ProcessBatch(ElementBatch{
        fx.elements.data(), fx.sides.data(), fx.hashes.data(),
        fx.elements.size()});
    PJOIN_DCHECK(st.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.elements.size()));
}
BENCHMARK(BM_DispatchBatched)->Arg(2000);

void BM_SpillRoundtrip(benchmark::State& state) {
  SchemaPtr schema = KP();
  std::vector<std::string> records;
  for (int i = 0; i < 256; ++i) {
    TupleEntry e;
    e.tuple = Tuple(schema, {Value(int64_t{i}), Value(int64_t{i * 7})});
    records.push_back(e.Serialize());
  }
  for (auto _ : state) {
    SimulatedDisk disk;
    const Status append_status = disk.AppendBatch(0, records);
    PJOIN_DCHECK(append_status.ok());
    auto out = disk.ReadPartition(0);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SpillRoundtrip);

}  // namespace
}  // namespace pjoin

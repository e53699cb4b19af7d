#include "obs/trace.h"

#include <algorithm>
#include <chrono>

#include "common/mutex.h"

namespace pjoin {
namespace obs {

TimeMicros TraceNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceRing::TraceRing(int32_t tid, size_t capacity)
    : tid_(tid), capacity_(capacity), slots_(new Slot[capacity]) {
  PJOIN_DCHECK(capacity > 0);
}

void TraceRing::Emit(const char* category, const char* name, TracePhase phase,
                     TimeMicros ts, int64_t value, uint64_t flow_id) {
  const int64_t idx = next_.load(std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<size_t>(idx) % capacity_];
  // Invalidate the slot first so a concurrent drain that catches the write
  // mid-flight sees a sequence mismatch rather than a half-new event.
  slot.seq.store(-1, std::memory_order_release);
  slot.category.store(category, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.phase.store(static_cast<int32_t>(phase), std::memory_order_relaxed);
  slot.ts.store(ts, std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.flow_id.store(flow_id, std::memory_order_relaxed);
  slot.seq.store(idx, std::memory_order_release);
  next_.store(idx + 1, std::memory_order_release);
}

int64_t TraceRing::Collect(std::vector<TraceEvent>* out, int64_t from,
                           int64_t end) const {
  const int64_t cap = static_cast<int64_t>(capacity_);
  const int64_t begin = std::max(from, std::max<int64_t>(0, end - cap));
  for (int64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[static_cast<size_t>(i) % capacity_];
    TraceEvent e;
    e.tid = tid_;
    if (slot.seq.load(std::memory_order_acquire) != i) continue;  // lapped
    e.category = slot.category.load(std::memory_order_relaxed);
    e.name = slot.name.load(std::memory_order_relaxed);
    e.phase = static_cast<TracePhase>(slot.phase.load(std::memory_order_relaxed));
    e.ts = slot.ts.load(std::memory_order_relaxed);
    e.value = slot.value.load(std::memory_order_relaxed);
    e.flow_id = slot.flow_id.load(std::memory_order_relaxed);
    // Re-check: a writer that wrapped during the reads above invalidated or
    // re-published the slot for a different index.
    if (slot.seq.load(std::memory_order_acquire) != i) continue;
    out->push_back(e);
  }
  return std::max<int64_t>(0, end - cap);
}

int64_t TraceRing::Snapshot(std::vector<TraceEvent>* out) const {
  return Collect(out, 0, next_.load(std::memory_order_acquire));
}

int64_t TraceRing::Drain(std::vector<TraceEvent>* out) {
  const int64_t from = drained_.load(std::memory_order_acquire);
  // Bound the pass by the write index sampled *before* collecting: events a
  // writer appends mid-collection stay un-drained for the next pass instead
  // of being skipped but marked consumed.
  const int64_t end = next_.load(std::memory_order_acquire);
  const int64_t dropped = Collect(out, from, end);
  drained_.store(std::max(from, end), std::memory_order_release);
  return dropped;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives exiting threads
  return *tracer;
}

void Tracer::Start() { enabled_.store(true, std::memory_order_relaxed); }

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

namespace {

// The calling thread's ring and name for one reset generation: after
// ResetForTest a live thread forgets both and re-registers on its next
// event instead of writing into a dropped ring.
struct ThreadSlot {
  std::shared_ptr<TraceRing> ring;
  std::string name;
  int64_t generation = -1;
};

ThreadSlot& CurrentSlot(int64_t generation) {
  thread_local ThreadSlot slot;
  if (slot.generation != generation) {
    slot = ThreadSlot{};
    slot.generation = generation;
  }
  return slot;
}

}  // namespace

TraceRing* Tracer::CurrentThreadRing() {
  ThreadSlot& slot = CurrentSlot(generation_.load(std::memory_order_acquire));
  if (slot.ring == nullptr) {
    MutexLock lock(mu_);
    slot.ring = std::make_shared<TraceRing>(next_tid_++, kRingCapacity);
    slot.ring->set_thread_name(slot.name);
    rings_.push_back(slot.ring);
  }
  return slot.ring.get();
}

void Tracer::SetCurrentThreadName(std::string name) {
  ThreadSlot& slot = CurrentSlot(generation_.load(std::memory_order_acquire));
  slot.name = std::move(name);
  if (slot.ring == nullptr) return;  // the first event's ring takes the name
  MutexLock lock(mu_);
  slot.ring->set_thread_name(slot.name);
}

std::vector<std::pair<int32_t, std::string>> Tracer::ThreadNames() const {
  std::vector<std::pair<int32_t, std::string>> names;
  MutexLock lock(mu_);
  for (const auto& ring : rings_) {
    if (!ring->thread_name().empty()) {
      names.emplace_back(ring->tid(), ring->thread_name());
    }
  }
  return names;
}

namespace {

void SortByTimestamp(std::vector<TraceEvent>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });
}

}  // namespace

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> events;
  for (const auto& ring : rings) {
    ring->Snapshot(&events);
  }
  SortByTimestamp(&events);
  return events;
}

std::vector<TraceEvent> Tracer::Drain() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> events;
  for (const auto& ring : rings) {
    ring->Drain(&events);
  }
  SortByTimestamp(&events);
  last_drain_us_.store(TraceNowMicros());
  last_drain_count_.store(static_cast<int64_t>(events.size()));
  return events;
}

int64_t Tracer::dropped_events() const {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    MutexLock lock(mu_);
    rings = rings_;
  }
  int64_t dropped = 0;
  std::vector<TraceEvent> scratch;
  for (const auto& ring : rings) {
    scratch.clear();
    dropped += ring->Snapshot(&scratch);
  }
  return dropped;
}

void Tracer::ResetForTest() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  MutexLock lock(mu_);
  rings_.clear();
  next_tid_ = 0;
  last_drain_us_.store(0);
  last_drain_count_.store(0);
}

void EmitEvent(const char* category, const char* name, TracePhase phase,
               int64_t value) {
  Tracer::Global().CurrentThreadRing()->Emit(category, name, phase,
                                             TraceNowMicros(), value);
}

void EmitFlowEvent(const char* category, const char* name, TracePhase phase,
                   uint64_t flow_id) {
  Tracer::Global().CurrentThreadRing()->Emit(category, name, phase,
                                             TraceNowMicros(), /*value=*/0,
                                             flow_id);
}

ScopedSpan::~ScopedSpan() {
  if (category_ == nullptr) return;
  const TimeMicros now = TraceNowMicros();
  Tracer::Global().CurrentThreadRing()->Emit(
      category_, name_, TracePhase::kComplete, start_, now - start_);
}

}  // namespace obs
}  // namespace pjoin

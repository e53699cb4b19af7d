// Always-on, low-overhead operator tracing (docs/OBSERVABILITY.md).
//
// Each thread that emits events owns a fixed-size ring buffer; writers never
// take a lock and never block. The global Tracer keeps the buffers registered
// (they outlive their threads) and drains them without stopping writers: all
// event payload fields are relaxed atomics, and each slot carries the global
// write index it was filled for, so the drain detects and skips slots that a
// wrapping writer overwrote mid-read. Overflow therefore keeps the *newest*
// events and counts the dropped ones.
//
// Instrumentation goes through three macros:
//
//   TRACE_SPAN(cat, name)             RAII span: a Chrome "X" (complete)
//                                     event covering the enclosing scope.
//   TRACE_INSTANT(cat, name)          a point-in-time "i" event.
//   TRACE_COUNTER(cat, name, value)   a "C" counter sample (e.g. queue
//                                     depth over time).
//   TRACE_FLOW_START(cat, name, id)   cross-thread flow arrows ("s"/"t"/
//   TRACE_FLOW_STEP(cat, name, id)    "f" in the Chrome export): one flow
//   TRACE_FLOW_END(cat, name, id)     id links events across threads, so
//                                     Perfetto draws a sampled tuple's
//                                     route→probe→merge path as arrows.
//   TRACE_SET_THREAD_NAME(name)       labels the calling thread in trace
//                                     exports ("router", "shard-3").
//
// With the CMake option PJOIN_TRACING=OFF the macros compile to nothing (the
// acceptance bar: probe micro-benchmarks within 2% of an uninstrumented
// build). With tracing compiled in but not started (Tracer::Start), each
// macro costs one relaxed atomic load and a branch.
//
// Category and name must be string literals (the ring stores the pointers).
//
// This file and trace.cc are — together with src/common/clock.* — the only
// places in src/ allowed to call std::chrono::steady_clock::now() directly
// (tools/lint_check.py rule raw-clock): everything else reads time through
// the Clock interface so virtual-time benches stay honest.

#ifndef PJOIN_OBS_TRACE_H_
#define PJOIN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

#ifndef PJOIN_TRACING
#define PJOIN_TRACING 1
#endif

namespace pjoin {
namespace obs {

/// Chrome trace_event phases this tracer emits.
enum class TracePhase : int32_t {
  kComplete = 0,   // "X": a span with start + duration
  kInstant = 1,    // "i": a point event
  kCounter = 2,    // "C": a sampled counter value
  kFlowStart = 3,  // "s": a cross-thread flow begins here
  kFlowStep = 4,   // "t": the flow passes through here
  kFlowEnd = 5,    // "f": the flow terminates here
};

/// One drained event. `value` is the duration (kComplete, microseconds) or
/// the sampled value (kCounter); unused for kInstant. `flow_id` links the
/// kFlow* phases of one cross-thread flow (0 = not a flow event).
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  TracePhase phase = TracePhase::kInstant;
  TimeMicros ts = 0;
  int64_t value = 0;
  uint64_t flow_id = 0;
  /// Dense tracer-assigned thread id (stable across the run).
  int32_t tid = 0;
};

/// The per-thread ring. Single writer (the owning thread); any thread may
/// drain concurrently. All payload fields are relaxed atomics and each slot
/// re-publishes its global write index last, so a drain can detect slots the
/// writer lapped and skip them instead of reporting torn events.
class TraceRing {
 public:
  explicit TraceRing(int32_t tid, size_t capacity);
  PJOIN_DISALLOW_COPY_AND_MOVE(TraceRing);

  void Emit(const char* category, const char* name, TracePhase phase,
            TimeMicros ts, int64_t value, uint64_t flow_id = 0);

  /// Appends every event still resident (oldest first) to `out`, without
  /// consuming anything. Returns the number of events that were overwritten
  /// before they could be read (lifetime total).
  int64_t Snapshot(std::vector<TraceEvent>* out) const;

  /// Appends every event not yet consumed by a previous Drain (oldest
  /// first) to `out` and advances the consumed watermark, so the next Drain
  /// starts where this one ended. Returns the number of events lost to ring
  /// overwrites before any reader saw them (lifetime total). Intended for
  /// the export path; concurrent Drain callers race the watermark and
  /// should coordinate.
  int64_t Drain(std::vector<TraceEvent>* out);

  int32_t tid() const { return tid_; }
  const std::string& thread_name() const { return thread_name_; }
  void set_thread_name(std::string name) { thread_name_ = std::move(name); }

 private:
  struct Slot {
    std::atomic<int64_t> seq{-1};  // global index of the resident event
    std::atomic<const char*> category{nullptr};
    std::atomic<const char*> name{nullptr};
    std::atomic<int32_t> phase{0};
    std::atomic<int64_t> ts{0};
    std::atomic<int64_t> value{0};
    std::atomic<uint64_t> flow_id{0};
  };

  int64_t Collect(std::vector<TraceEvent>* out, int64_t from,
                  int64_t end) const;

  const int32_t tid_;
  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<int64_t> next_{0};     // next global write index
  std::atomic<int64_t> drained_{0};  // Drain()-consumed watermark
  std::string thread_name_;          // written and read under Tracer::mu_
};

/// Process-wide tracer: owns the thread rings, the recording switch, and the
/// drain. Rings are registered on a thread's first event and deliberately
/// kept after the thread exits so an end-of-run drain sees every event.
class Tracer {
 public:
  static Tracer& Global();

  /// Starts recording. Events emitted while stopped are dropped at the
  /// macro's atomic-load guard (no ring traffic at all).
  void Start();
  void Stop();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Non-destructive view of every ring, merged and sorted by timestamp —
  /// the scrape path (/tracez): concurrent scrapers all see the same
  /// resident events and never steal from the export.
  std::vector<TraceEvent> Snapshot() const EXCLUDES(mu_);
  /// Consumes every not-yet-drained event, merged and sorted by timestamp —
  /// the export path (Chrome trace): a second export does not re-emit what
  /// the first already wrote. Records last_drain metadata.
  std::vector<TraceEvent> Drain() EXCLUDES(mu_);
  /// Total events overwritten before a reader could see them.
  int64_t dropped_events() const EXCLUDES(mu_);
  /// TraceNowMicros() timestamp of the most recent Drain (0 = never), and
  /// the number of events it consumed.
  TimeMicros last_drain_us() const { return last_drain_us_.load(); }
  int64_t last_drain_count() const { return last_drain_count_.load(); }

  /// Names the calling thread in trace exports ("router", "shard-3"). The
  /// name waits in the thread until its first recorded event creates its
  /// ring, so a thread that never records costs no ring; ResetForTest
  /// forgets it.
  void SetCurrentThreadName(std::string name) EXCLUDES(mu_);
  /// tid -> name for every ring that was given one.
  std::vector<std::pair<int32_t, std::string>> ThreadNames() const
      EXCLUDES(mu_);

  /// Drops all registered rings and re-arms fresh ones lazily. Test-only:
  /// callers must ensure no other thread is emitting.
  void ResetForTest() EXCLUDES(mu_);

  /// Ring of the calling thread (registered, with the thread's name, on
  /// first use).
  TraceRing* CurrentThreadRing() EXCLUDES(mu_);

  /// Events per thread ring; overflow overwrites the oldest.
  static constexpr size_t kRingCapacity = 1 << 16;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> generation_{0};
  std::atomic<int64_t> last_drain_us_{0};
  std::atomic<int64_t> last_drain_count_{0};
  mutable Mutex mu_;
  std::vector<std::shared_ptr<TraceRing>> rings_ GUARDED_BY(mu_);
  int32_t next_tid_ GUARDED_BY(mu_) = 0;
};

/// Timestamp source for trace events: microseconds on the process-wide
/// monotonic clock (one origin for every thread, unlike per-instance
/// WallClock origins).
TimeMicros TraceNowMicros();

/// Emits one instant or counter event on the calling thread's ring.
void EmitEvent(const char* category, const char* name, TracePhase phase,
               int64_t value);

/// Emits one flow event (kFlowStart / kFlowStep / kFlowEnd) carrying
/// `flow_id` on the calling thread's ring.
void EmitFlowEvent(const char* category, const char* name, TracePhase phase,
                   uint64_t flow_id);

/// RAII span: captures the start time at construction and emits one complete
/// event at destruction. Inert when the tracer is not recording.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name)
      : category_(Tracer::Global().enabled() ? category : nullptr),
        name_(name),
        start_(category_ != nullptr ? TraceNowMicros() : 0) {}
  ~ScopedSpan();
  PJOIN_DISALLOW_COPY_AND_MOVE(ScopedSpan);

 private:
  const char* category_;  // nullptr = inactive
  const char* name_;
  TimeMicros start_;
};

}  // namespace obs
}  // namespace pjoin

#if PJOIN_TRACING

#define PJOIN_TRACE_CAT2(a, b) a##b
#define PJOIN_TRACE_CAT(a, b) PJOIN_TRACE_CAT2(a, b)

#define TRACE_SPAN(category, name) \
  ::pjoin::obs::ScopedSpan PJOIN_TRACE_CAT(pjoin_span_, __LINE__)(category, \
                                                                  name)
#define TRACE_INSTANT(category, name)                                \
  do {                                                               \
    if (::pjoin::obs::Tracer::Global().enabled()) {                  \
      ::pjoin::obs::EmitEvent(category, name,                        \
                              ::pjoin::obs::TracePhase::kInstant, 0); \
    }                                                                \
  } while (0)
#define TRACE_COUNTER(category, name, value)                          \
  do {                                                                \
    if (::pjoin::obs::Tracer::Global().enabled()) {                   \
      ::pjoin::obs::EmitEvent(category, name,                         \
                              ::pjoin::obs::TracePhase::kCounter,     \
                              static_cast<int64_t>(value));           \
    }                                                                 \
  } while (0)
#define PJOIN_TRACE_FLOW(category, name, phase, id)                   \
  do {                                                                \
    if (::pjoin::obs::Tracer::Global().enabled()) {                   \
      ::pjoin::obs::EmitFlowEvent(category, name, phase,              \
                                  static_cast<uint64_t>(id));         \
    }                                                                 \
  } while (0)
#define TRACE_FLOW_START(category, name, id) \
  PJOIN_TRACE_FLOW(category, name, ::pjoin::obs::TracePhase::kFlowStart, id)
#define TRACE_FLOW_STEP(category, name, id) \
  PJOIN_TRACE_FLOW(category, name, ::pjoin::obs::TracePhase::kFlowStep, id)
#define TRACE_FLOW_END(category, name, id) \
  PJOIN_TRACE_FLOW(category, name, ::pjoin::obs::TracePhase::kFlowEnd, id)
#define TRACE_SET_THREAD_NAME(name)                                 \
  do {                                                              \
    ::pjoin::obs::Tracer::Global().SetCurrentThreadName(name);      \
  } while (0)

#else  // !PJOIN_TRACING

#define TRACE_SPAN(category, name) \
  do {                             \
  } while (0)
#define TRACE_INSTANT(category, name) \
  do {                                \
  } while (0)
#define TRACE_COUNTER(category, name, value) \
  do {                                       \
  } while (0)
#define TRACE_FLOW_START(category, name, id) \
  do {                                       \
  } while (0)
#define TRACE_FLOW_STEP(category, name, id) \
  do {                                      \
  } while (0)
#define TRACE_FLOW_END(category, name, id) \
  do {                                     \
  } while (0)
#define TRACE_SET_THREAD_NAME(name) \
  do {                              \
  } while (0)

#endif  // PJOIN_TRACING

#endif  // PJOIN_OBS_TRACE_H_

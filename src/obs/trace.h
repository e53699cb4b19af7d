// Always-on, low-overhead operator tracing (docs/OBSERVABILITY.md).
//
// Each thread that emits events owns a fixed-size ring buffer; writers never
// take a lock and never block. The global Tracer keeps the buffers registered
// (they outlive their threads) and reads them without stopping writers: all
// event payload fields are relaxed atomics, and each slot carries the global
// write index it was filled for, so a snapshot detects and skips slots that a
// wrapping writer overwrote mid-read. Overflow therefore keeps the *newest*
// events and counts the dropped ones.
//
// Instrumentation goes through these macros:
//
//   TRACE_SPAN(cat, name)             RAII span: a Chrome "X" (complete)
//                                     event covering the enclosing scope.
//   TRACE_INSTANT(cat, name)          a point-in-time "i" event.
//   TRACE_SET_THREAD_NAME(name)       labels the calling thread in trace
//                                     exports ("router", "shard-3").
//
// With the CMake option PJOIN_TRACING=OFF the macros compile to nothing (the
// acceptance bar: probe micro-benchmarks within 2% of an uninstrumented
// build). With tracing compiled in but not started (Tracer::Start), each
// macro costs one relaxed atomic load and a branch.
//
// Category and name must be string literals (the ring stores the pointers).
// Trace points sit at batch and stage boundaries, never on a per-tuple path:
// a span per tuple would overflow a ring within one run.
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
};

/// One recorded event. `value` is the duration (kComplete, microseconds);
/// unused for kInstant.
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  TracePhase phase = TracePhase::kInstant;
  TimeMicros ts = 0;
  int64_t value = 0;
  /// Dense tracer-assigned thread id (stable across the run).
  int32_t tid = 0;
};

/// The per-thread ring. Single writer (the owning thread); any thread may
/// read concurrently. All payload fields are relaxed atomics and each slot
/// re-publishes its global write index last, so a snapshot can detect slots
/// the writer lapped and skip them instead of reporting torn events.
class TraceRing {
 public:
  explicit TraceRing(int32_t tid, size_t capacity);
  PJOIN_DISALLOW_COPY_AND_MOVE(TraceRing);

  void Emit(const char* category, const char* name, TracePhase phase,
            TimeMicros ts, int64_t value);

  /// Appends every event still resident (oldest first) to `out`, without
  /// consuming anything.
  void Snapshot(std::vector<TraceEvent>* out) const;

  /// Events overwritten so far (lifetime total): every write past the
  /// ring's capacity displaced the oldest resident event.
  int64_t dropped() const;

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
  };

  const int32_t tid_;
  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<int64_t> next_{0};  // next global write index
  std::string thread_name_;       // written and read under Tracer::mu_
};

/// Process-wide tracer: owns the thread rings and the recording switch.
/// Rings are registered on a thread's first event and deliberately kept
/// after the thread exits so an end-of-run export sees every event.
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

  /// Non-destructive view of every ring, merged and sorted by timestamp:
  /// the one read path, shared by /tracez scrapes and the Chrome export.
  std::vector<TraceEvent> Snapshot() const EXCLUDES(mu_);
  /// Total events overwritten before a reader could see them.
  int64_t dropped_events() const EXCLUDES(mu_);

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
  mutable Mutex mu_;
  std::vector<std::shared_ptr<TraceRing>> rings_ GUARDED_BY(mu_);
  int32_t next_tid_ GUARDED_BY(mu_) = 0;
};

/// Timestamp source for trace events: microseconds on the process-wide
/// monotonic clock (one origin for every thread, unlike per-instance
/// WallClock origins).
TimeMicros TraceNowMicros();

/// Emits one instant event on the calling thread's ring.
void EmitInstant(const char* category, const char* name);

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
#define TRACE_INSTANT(category, name)                  \
  do {                                                 \
    if (::pjoin::obs::Tracer::Global().enabled()) {    \
      ::pjoin::obs::EmitInstant(category, name);       \
    }                                                  \
  } while (0)
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
#define TRACE_SET_THREAD_NAME(name) \
  do {                              \
  } while (0)

#endif  // PJOIN_TRACING

#endif  // PJOIN_OBS_TRACE_H_

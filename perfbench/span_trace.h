// Benchmark-owned spans: one per wrapped call into a library layer, timed
// from outside the library (obs::Tracer stays off). Each recorder belongs to
// one thread at a time, so recording takes no lock; nesting is tracked with a
// small stack so every layer gets both its total and its self time (total
// minus the part its child spans cover).

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// The wrapped calls, named by the module they enter.
enum class Layer : int {
  kRun = 0,        // ParallelJoinPipeline::Run, or the benchmark's own driver
  kJoinTuple,      // PJoin::OnTupleHashed
  kJoinPunct,      // PJoin::OnPunctuation
  kJoinStall,      // PJoin::OnStreamsStalled
  kJoinFinish,     // PJoin::Finish
  kStorageAppend,  // SpillStore::AppendBatch
  kStorageRead,    // SpillStore::ReadPartition
  kStorageClear,   // SpillStore::ClearPartition
  kSinkResult,     // result callback
  kSinkPunct,      // punctuation callback
  kCount,
};

constexpr int kNumLayers = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);
/// "run", "join", "storage" or "sink": the module a layer belongs to.
const char* LayerModule(Layer layer);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  Layer layer = Layer::kRun;
  int depth = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `keep_spans` individual spans for the trace file; totals
  /// and self times cover every span regardless.
  SpanRecorder(std::string thread_name, size_t keep_spans);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::string& thread_name() const { return thread_name_; }

  void Begin(Layer layer);
  void End();

  int64_t calls(Layer layer) const { return calls_[Index(layer)]; }
  int64_t total_ns(Layer layer) const { return total_ns_[Index(layer)]; }
  int64_t self_ns(Layer layer) const { return self_ns_[Index(layer)]; }
  /// Time inside outermost spans: how long this thread was busy in a layer.
  int64_t busy_ns() const { return busy_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static size_t Index(Layer layer) { return static_cast<size_t>(layer); }

  struct Open {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };

  const std::string thread_name_;
  const size_t keep_spans_;
  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::array<int64_t, kNumLayers> calls_{};
  std::array<int64_t, kNumLayers> total_ns_{};
  std::array<int64_t, kNumLayers> self_ns_{};
  int64_t busy_ns_ = 0;
};

/// Times the enclosing scope as one span when the recorder is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder->enabled() ? recorder : nullptr) {
    if (recorder_ != nullptr) recorder_->Begin(layer);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Writes the kept spans of `recorders` as a Chrome trace_event file
/// (complete "X" events, one tid per recorder, microseconds since
/// `origin_ns`).
pjoin::Status WriteChromeTrace(const std::string& path,
                               const std::vector<const SpanRecorder*>& recorders,
                               int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_

#include "span_trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "run";
    case Layer::kJoinTuple: return "join.tuple";
    case Layer::kJoinPunct: return "join.punct";
    case Layer::kJoinStall: return "join.stall";
    case Layer::kJoinFinish: return "join.finish";
    case Layer::kStorageAppend: return "storage.append";
    case Layer::kStorageRead: return "storage.read";
    case Layer::kStorageClear: return "storage.clear";
    case Layer::kSinkResult: return "sink.result";
    case Layer::kSinkPunct: return "sink.punct";
    case Layer::kCount: break;
  }
  return "?";
}

const char* LayerModule(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "run";
    case Layer::kJoinTuple:
    case Layer::kJoinPunct:
    case Layer::kJoinStall:
    case Layer::kJoinFinish: return "join";
    case Layer::kStorageAppend:
    case Layer::kStorageRead:
    case Layer::kStorageClear: return "storage";
    case Layer::kSinkResult:
    case Layer::kSinkPunct: return "sink";
    case Layer::kCount: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder(std::string thread_name, size_t keep_spans)
    : thread_name_(std::move(thread_name)), keep_spans_(keep_spans) {
  stack_.reserve(8);
}

void SpanRecorder::Begin(Layer layer) {
  stack_.push_back(Open{layer, NowNs(), 0});
}

void SpanRecorder::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  const size_t i = Index(open.layer);
  ++calls_[i];
  total_ns_[i] += dur;
  self_ns_[i] += dur - open.child_ns;
  if (stack_.empty()) {
    busy_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (spans_.size() < keep_spans_) {
    spans_.push_back(Span{open.layer, static_cast<int>(stack_.size()),
                          open.start_ns, end});
  }
}

pjoin::Status WriteChromeTrace(const std::string& path,
                               const std::vector<const SpanRecorder*>& recorders,
                               int64_t origin_ns) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  for (size_t tid = 0; tid < recorders.size(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                  "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",\n", tid,
                  recorders[tid]->thread_name().c_str());
    out << buf;
    first = false;
    for (const Span& s : recorders[tid]->spans()) {
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                    "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                    LayerName(s.layer), LayerModule(s.layer), tid,
                    static_cast<double>(s.start_ns - origin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << buf;
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return pjoin::Status::IOError("cannot write trace " + path);
  return pjoin::Status::OK();
}

}  // namespace perfbench

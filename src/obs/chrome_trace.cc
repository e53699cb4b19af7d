#include "obs/chrome_trace.h"

#include <fstream>

namespace pjoin {
namespace obs {

namespace {

void AppendEscaped(std::ostream& os, const char* s) {
  os << '"';
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void WriteChromeTrace(
    std::ostream& os, const std::vector<TraceEvent>& events,
    const std::vector<std::pair<int32_t, std::string>>& thread_names) {
  os << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&os, &first]() {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
  };
  for (const auto& [tid, name] : thread_names) {
    sep();
    os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": ";
    AppendEscaped(os, name.c_str());
    os << "}}";
  }
  for (const TraceEvent& e : events) {
    sep();
    os << "{\"name\": ";
    AppendEscaped(os, e.name);
    os << ", \"cat\": ";
    AppendEscaped(os, e.category);
    os << ", \"pid\": 1, \"tid\": " << e.tid << ", \"ts\": " << e.ts;
    switch (e.phase) {
      case TracePhase::kComplete:
        os << ", \"ph\": \"X\", \"dur\": " << e.value;
        break;
      case TracePhase::kInstant:
        os << ", \"ph\": \"i\", \"s\": \"t\"";
        break;
    }
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

Status WriteChromeTraceFile(const std::string& path) {
  Tracer& tracer = Tracer::Global();
  const std::vector<TraceEvent> events = tracer.Snapshot();
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  WriteChromeTrace(out, events, tracer.ThreadNames());
  out.flush();
  if (!out) {
    return Status::IOError("write to trace file '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace pjoin

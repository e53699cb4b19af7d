// Chrome trace_event JSON export (docs/OBSERVABILITY.md): serializes
// TraceEvents into the object-form trace format that chrome://tracing and
// Perfetto load directly. Spans become "X" (complete) events and instants
// "i"; named threads are emitted as "thread_name" metadata records so
// Perfetto labels the tracks.

#ifndef PJOIN_OBS_CHROME_TRACE_H_
#define PJOIN_OBS_CHROME_TRACE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace pjoin {
namespace obs {

/// Writes `events` as Chrome trace JSON to `os`. `thread_names` labels the
/// tid tracks (pass Tracer::Global().ThreadNames()).
void WriteChromeTrace(
    std::ostream& os, const std::vector<TraceEvent>& events,
    const std::vector<std::pair<int32_t, std::string>>& thread_names);

/// Writes a snapshot of the global tracer's resident events to `path`.
[[nodiscard]] Status WriteChromeTraceFile(const std::string& path);

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_CHROME_TRACE_H_

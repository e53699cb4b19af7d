#include "obs/introspection.h"

#include <map>
#include <utility>
#include <vector>

#include "obs/build_info.h"
#include "obs/health.h"
#include "obs/metrics_registry.h"
#include "obs/promtext.h"
#include "obs/trace.h"

namespace pjoin {
namespace obs {

namespace {

std::string BuildFlags() {
  std::string out;
  out.append("compiler: ");
  out.append(__VERSION__);
  out.push_back('\n');
#ifdef NDEBUG
  out.append("assertions: off (NDEBUG)\n");
#else
  out.append("assertions: on\n");
#endif
#if PJOIN_TRACING
  out.append("tracing: compiled in\n");
#else
  out.append("tracing: compiled out\n");
#endif
#if defined(__SANITIZE_ADDRESS__)
  out.append("sanitizer: address\n");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  out.append("sanitizer: address\n");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  out.append("sanitizer: thread\n");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  out.append("sanitizer: thread\n");
#endif
#endif
  return out;
}

HttpResponse TextResponse(std::string body) {
  HttpResponse resp;
  resp.body = std::move(body);
  return resp;
}

}  // namespace

std::string RenderStatusz(TimeMicros uptime_us) {
  std::string out;
  out.append("pjoin introspection\n");
  out.append("uptime_seconds: ");
  out.append(std::to_string(uptime_us / 1000000));
  out.push_back('.');
  out.append(std::to_string((uptime_us % 1000000) / 100000));
  out.append("\n\n== build ==\n");
  out.append(BuildFlags());
  out.push_back('\n');

  out.append("== gauges ==\n");
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.kind != MetricKind::kGauge) continue;
    out.append(s.name);
    if (!s.labels.empty()) {
      out.push_back('{');
      out.append(s.labels);
      out.push_back('}');
    }
    out.append(" = ");
    out.append(std::to_string(s.value));
    out.push_back('\n');
  }
  return out;
}

namespace {

std::string RenderTracez() {
  // Show the newest resident events per category so a scrape answers "what
  // is each subsystem doing right now".
  constexpr size_t kPerCategory = 32;
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  std::map<std::string, std::vector<const TraceEvent*>> by_category;
  for (const TraceEvent& e : events) {
    by_category[e.category].push_back(&e);
  }
  std::string out;
  out.append("tracer: ");
  out.append(Tracer::Global().enabled() ? "recording" : "stopped");
  out.append("\ndropped_events: ");
  out.append(std::to_string(Tracer::Global().dropped_events()));
  out.append("\n\n");
  for (auto& [category, evs] : by_category) {
    out.append("== ");
    out.append(category);
    out.append(" (");
    out.append(std::to_string(evs.size()));
    out.append(" resident) ==\n");
    const size_t begin = evs.size() > kPerCategory ? evs.size() - kPerCategory
                                                   : 0;
    for (size_t i = begin; i < evs.size(); ++i) {
      const TraceEvent& e = *evs[i];
      out.append(std::to_string(e.ts));
      out.append("us tid=");
      out.append(std::to_string(e.tid));
      out.push_back(' ');
      out.append(e.name);
      if (e.phase == TracePhase::kComplete) {
        out.append(" dur=");
        out.append(std::to_string(e.value));
        out.append("us");
      }
      out.push_back('\n');
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

IntrospectionServer::IntrospectionServer() {
  RegisterBuildInfo();
  server_.AddHandler("/metrics", [](const HttpRequest&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = GlobalPrometheusText();
    return resp;
  });
  server_.AddHandler("/healthz", [](const HttpRequest&) {
    const HealthReport report =
        EvaluateHealth(MetricsRegistry::Global().Snapshot(), TraceNowMicros());
    HttpResponse resp;
    resp.status = report.status == HealthStatus::kStalled ? 503 : 200;
    resp.content_type = "application/json";
    resp.body = report.ToJson();
    resp.body.push_back('\n');
    return resp;
  });
  server_.AddHandler("/statusz", [this](const HttpRequest&) {
    return TextResponse(RenderStatusz(TraceNowMicros() - start_us_));
  });
  server_.AddHandler("/tracez", [](const HttpRequest&) {
    return TextResponse(RenderTracez());
  });
  server_.AddHandler("/quitquitquit", [this](const HttpRequest&) {
    quit_.store(true);
    return TextResponse("quitting\n");
  });
  server_.AddHandler("/", [](const HttpRequest&) {
    return TextResponse(
        "pjoin introspection endpoints:\n"
        "  /metrics       Prometheus text exposition\n"
        "  /healthz       stall classification (200 ok/degraded, 503 "
        "stalled) + JSON detail\n"
        "  /statusz       human-readable pipeline snapshot\n"
        "  /tracez        recent trace events per category\n"
        "  /quitquitquit  request the host process wind down\n");
  });
}

Status IntrospectionServer::Start(int port) {
  start_us_ = TraceNowMicros();
  return server_.Start(port);
}

void IntrospectionServer::Stop() { server_.Stop(); }

}  // namespace obs
}  // namespace pjoin

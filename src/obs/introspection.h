// Live introspection endpoints (docs/OBSERVABILITY.md): an HttpServer
// pre-wired with
//
//   GET /metrics   Prometheus text exposition of MetricsRegistry::Global()
//   GET /statusz   human-readable snapshot: uptime, build flags, and a dump
//                  of all registry gauges (a parallel pipeline's per-shard
//                  ring occupancies, dispatch times and join state are
//                  gauges labeled by shard)
//   GET /healthz   stall classification of a fresh registry snapshot
//                  (obs/health.h)
//   GET /tracez    most recent resident trace events, grouped by category
//   GET /quitquitquit  sets quit_requested() — lets a linger loop (bench
//                  --serve_linger_ms) be told to exit by the scraper

#ifndef PJOIN_OBS_INTROSPECTION_H_
#define PJOIN_OBS_INTROSPECTION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/macros.h"
#include "common/status.h"
#include "obs/http_server.h"

namespace pjoin {
namespace obs {

/// Renders the /statusz body (also used headlessly in tests).
std::string RenderStatusz(TimeMicros uptime_us);

class IntrospectionServer {
 public:
  IntrospectionServer();
  PJOIN_DISALLOW_COPY_AND_MOVE(IntrospectionServer);

  /// Starts serving on loopback:`port` (0 = ephemeral; see port()).
  Status Start(int port);
  void Stop();

  [[nodiscard]] int port() const { return server_.port(); }

  /// True once a scraper has hit /quitquitquit.
  [[nodiscard]] bool quit_requested() const {
    return quit_.load();
  }

 private:
  HttpServer server_;
  std::atomic<bool> quit_{false};
  TimeMicros start_us_ = 0;
};

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_INTROSPECTION_H_

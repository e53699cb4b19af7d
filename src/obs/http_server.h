// Minimal POSIX-socket HTTP/1.1 server for live introspection
// (docs/OBSERVABILITY.md): one accept thread plus a bounded handler pool,
// GET-only, exact-path routing, Connection: close per request. Standard
// library + sockets only — this is a debug surface, not a web framework.
//
// Raw socket(2)/bind(2)/accept(2) calls live exclusively in
// http_server.cc; tools/lint_check.py rejects them anywhere else in src/
// (mirroring the raw-clock rule) so every listening endpoint in the
// process goes through this audited, cleanly-stoppable server.

#ifndef PJOIN_OBS_HTTP_SERVER_H_
#define PJOIN_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace pjoin {
namespace obs {

/// A parsed GET request: "/statusz?verbose=1" splits into path and query.
struct HttpRequest {
  std::string path;
  std::string query;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Lifecycle: construct -> AddHandler()* -> Start() -> Stop(). Stop() is
/// idempotent and joins every thread, so destruction after Stop() (or
/// without Start()) is race-free; the destructor calls Stop() as a
/// backstop.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  PJOIN_DISALLOW_COPY_AND_MOVE(HttpServer);

  /// Registers an exact-match handler for `path`. Must precede Start().
  void AddHandler(std::string path, Handler handler);

  /// Binds the loopback interface on `port` (0 picks an ephemeral port,
  /// readable via port()) and starts the accept + worker threads. Fails
  /// with IOError when the port is taken.
  Status Start(int port);

  /// The bound port; 0 before a successful Start().
  [[nodiscard]] int port() const { return port_; }

  /// Stops accepting, drains queued connections, joins all threads.
  void Stop();

  /// Requests larger than this (request line + headers) get 431.
  static constexpr size_t kMaxRequestBytes = 8192;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  std::map<std::string, Handler> handlers_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar queue_cv_;
  std::deque<int> pending_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace pjoin

#endif  // PJOIN_OBS_HTTP_SERVER_H_

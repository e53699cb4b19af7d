#include "obs/http_server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/mutex.h"

namespace pjoin {
namespace obs {

namespace {

/// Handler pool size; each worker serves one connection at a time.
constexpr int kNumWorkers = 2;
/// Accepted connections queued for a free worker beyond this get 503.
constexpr size_t kMaxPending = 16;
/// Per-connection socket read/write timeout.
constexpr int kIoTimeoutMs = 2000;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

void SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-write must not SIGPIPE the
    // pipeline process this server is embedded in.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing useful to do
    off += static_cast<size_t>(n);
  }
}

void SendResponse(int fd, const HttpResponse& resp) {
  std::string head;
  head.reserve(128);
  head.append("HTTP/1.1 ");
  head.append(std::to_string(resp.status));
  head.push_back(' ');
  head.append(ReasonPhrase(resp.status));
  head.append("\r\nContent-Type: ");
  head.append(resp.content_type);
  head.append("\r\nContent-Length: ");
  head.append(std::to_string(resp.body.size()));
  head.append("\r\nConnection: close\r\n");
  if (resp.status == 405) head.append("Allow: GET\r\n");
  head.append("\r\n");
  SendAll(fd, head);
  SendAll(fd, resp.body);
}

HttpResponse ErrorResponse(int status, std::string_view detail) {
  HttpResponse resp;
  resp.status = status;
  resp.body.append(std::to_string(status));
  resp.body.push_back(' ');
  resp.body.append(ReasonPhrase(status));
  if (!detail.empty()) {
    resp.body.append(": ");
    resp.body.append(detail);
  }
  resp.body.push_back('\n');
  return resp;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

void HttpServer::AddHandler(std::string path, Handler handler) {
  PJOIN_DCHECK(listen_fd_ == -1);  // routing table is frozen at Start()
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start(int port) {
  PJOIN_DCHECK(listen_fd_ == -1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // Loopback only: this is an introspection surface, not a public API.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("bind port " + std::to_string(port) + ": " +
                           std::strerror(err));
  }
  if (::listen(fd, static_cast<int>(kMaxPending)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("getsockname: ") + std::strerror(err));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(kNumWorkers);
  for (int i = 0; i < kNumWorkers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  {
    // Flipping the flag under mu_ closes the lost-wakeup window against a
    // worker that has checked its predicate but not yet blocked.
    MutexLock lock(mu_);
    if (stopping_.load() && listen_fd_ == -1) {
      return;  // never started, or already stopped
    }
    stopping_.store(true);
  }
  queue_cv_.NotifyAll();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // Short poll timeout bounds shutdown latency without relying on the
    // platform-flaky "close() unblocks accept()" behavior.
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    timeval tv;
    tv.tv_sec = kIoTimeoutMs / 1000;
    tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool enqueued = false;
    {
      MutexLock lock(mu_);
      if (pending_.size() < kMaxPending && !stopping_.load()) {
        pending_.push_back(conn);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.NotifyOne();
    } else {
      SendResponse(conn, ErrorResponse(503, "handler pool saturated"));
      ::close(conn);
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      while (pending_.empty() &&
             !stopping_.load()) {
        queue_cv_.Wait(mu_);
      }
      if (pending_.empty()) return;  // stopping, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buf;
  bool complete = false;
  bool oversize = false;
  char chunk[1024];
  while (!complete && !oversize) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed or timed out mid-request
    buf.append(chunk, static_cast<size_t>(n));
    if (buf.find("\r\n\r\n") != std::string::npos ||
        buf.find("\n\n") != std::string::npos) {
      complete = true;
    } else if (buf.size() > kMaxRequestBytes) {
      oversize = true;
    }
  }
  if (oversize) {
    SendResponse(fd, ErrorResponse(431, ""));
    ::close(fd);
    return;
  }
  if (!complete) {
    if (!buf.empty()) SendResponse(fd, ErrorResponse(400, "truncated request"));
    ::close(fd);
    return;
  }

  // Request line: METHOD SP TARGET SP HTTP/x.y
  const size_t eol = buf.find_first_of("\r\n");
  const std::string line = buf.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    SendResponse(fd, ErrorResponse(400, "malformed request line"));
    ::close(fd);
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    SendResponse(fd, ErrorResponse(405, method));
    ::close(fd);
    return;
  }

  HttpRequest req;
  const size_t qmark = target.find('?');
  req.path = target.substr(0, qmark);
  if (qmark != std::string::npos) req.query = target.substr(qmark + 1);

  const auto it = handlers_.find(req.path);
  if (it == handlers_.end()) {
    SendResponse(fd, ErrorResponse(404, req.path));
    ::close(fd);
    return;
  }
  SendResponse(fd, it->second(req));
  ::close(fd);
}

}  // namespace obs
}  // namespace pjoin

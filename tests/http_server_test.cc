// Tests for the introspection HTTP server (src/obs/http_server.cc) and the
// pre-wired IntrospectionServer endpoints: routing, malformed / oversize
// requests, port conflicts, clean shutdown, and scraping /metrics +
// /statusz while a ParallelJoinPipeline is running (the latter runs under
// TSan in CI — it is the "live scrape" race detector).
//
// The raw client sockets below are the test's HTTP client; the raw-socket
// lint rule is src/-only, so tests may speak to the server directly.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "obs/http_server.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/promtext.h"
#include "ops/parallel_pipeline.h"

namespace pjoin {
namespace {

// Sends `raw` to 127.0.0.1:`port` and returns everything the server sends
// back until it closes the connection.
std::string RawRequest(int port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

TEST(HttpServerTest, ServesRegisteredHandlerAndParsesQuery) {
  obs::HttpServer server;
  server.AddHandler("/hello", [](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    resp.body = "hi query=[" + req.query + "]";
    return resp;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);
  const std::string response = Get(server.port(), "/hello?a=1");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("hi query=[a=1]"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404) {
  obs::HttpServer server;
  server.AddHandler("/hello", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(Get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, NonGetMethodIs405) {
  obs::HttpServer server;
  server.AddHandler("/hello", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = RawRequest(
      server.port(), "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << response;
  EXPECT_NE(response.find("Allow: GET"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestLineIs400) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response =
      RawRequest(server.port(), "this is not http\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, OversizeRequestIs431) {
  obs::HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const std::string big_header(2 * obs::HttpServer::kMaxRequestBytes, 'x');
  const std::string response = RawRequest(
      server.port(),
      "GET / HTTP/1.1\r\nX-Padding: " + big_header + "\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos) << response;
  server.Stop();
}

TEST(HttpServerTest, PortInUseFailsWithIOError) {
  obs::HttpServer first;
  ASSERT_TRUE(first.Start(0).ok());
  obs::HttpServer second;
  const Status status = second.Start(first.port());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bind port"), std::string::npos)
      << status.ToString();
  first.Stop();
  // The port is free again after Stop(); a fresh server can claim it.
  obs::HttpServer third;
  EXPECT_TRUE(third.Start(first.port()).ok());
  third.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndStartlessStopIsSafe) {
  {
    obs::HttpServer never_started;
    never_started.Stop();
  }  // destructor after Stop() must also be clean
  obs::HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
}

TEST(HttpServerTest, ConcurrentClientsAreAllServed) {
  obs::HttpServer server;
  server.AddHandler("/hello", [](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.body = "ok";
    return resp;
  });
  ASSERT_TRUE(server.Start(0).ok());
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &responses, i] {
      responses[static_cast<size_t>(i)] = Get(server.port(), "/hello");
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos) << r;
  }
  server.Stop();
}

// ---- IntrospectionServer against a live pipeline ----

class IntrospectionServerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().ResetForTest(); }
  void TearDown() override { obs::MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(IntrospectionServerTest, EndpointsServeAndQuitLatches) {
  obs::IntrospectionServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(Get(server.port(), "/").find("/metrics"), std::string::npos);
  EXPECT_NE(Get(server.port(), "/statusz").find("uptime_seconds"),
            std::string::npos);
  EXPECT_NE(Get(server.port(), "/tracez").find("tracer:"),
            std::string::npos);
  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos) << metrics;
  EXPECT_FALSE(server.quit_requested());
  EXPECT_NE(Get(server.port(), "/quitquitquit").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_TRUE(server.quit_requested());
  server.Stop();
}

// Scrapes /metrics and /statusz continuously while a ParallelJoinPipeline
// runs — under TSan this is the detector for races between server worker
// threads and router/shard threads publishing gauges and histograms.
TEST_F(IntrospectionServerTest, ScrapeWhilePipelineRunning) {
  obs::IntrospectionServer server;
  ASSERT_TRUE(server.Start(0).ok());

  DomainSpec domain;
  domain.window_size = 16;
  StreamSpec spec;
  spec.num_tuples = 4000;
  spec.punct_mean_interarrival_tuples = 25.0;
  spec.flush_punctuations_at_end = true;
  const GeneratedStreams streams =
      GenerateStreams(domain, spec, spec, /*seed=*/7);

  JoinOptions options;
  options.runtime.purge_threshold = 1;
  options.runtime.propagate_count_threshold = 1;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    // Hammer the endpoints until the pipeline completes; every response
    // must stay well-formed.
    while (!done.load(std::memory_order_acquire)) {
      const std::string metrics = Get(server.port(), "/metrics");
      EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
      const std::string statusz = Get(server.port(), "/statusz");
      EXPECT_NE(statusz.find("HTTP/1.1 200"), std::string::npos);
    }
  });

  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<PJoin>(streams.schema_a, streams.schema_b,
                                       options);
      },
      popts);
  int64_t results = 0;
  pipeline.set_result_callback([&](const Tuple&) { ++results; });
  const Status status = pipeline.Run(streams.a, streams.b);
  done.store(true, std::memory_order_release);
  scraper.join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // After the run the registry holds per-shard latency histograms with
  // real observations, and the exposition endpoint serves them.
  const std::string text = obs::GlobalPrometheusText();
  EXPECT_NE(text.find("pjoin_tuple_latency_seconds_bucket"),
            std::string::npos)
      << text;
  const std::string count_line = "pjoin_tuple_latency_seconds_count";
  EXPECT_NE(text.find(count_line), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace pjoin

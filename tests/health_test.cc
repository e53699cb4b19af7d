// Tests for the stall-diagnosis layer (src/obs/health.*): classification of
// each shard's dispatch gauge on synthetic clocks, the spill-degraded signal
// from both of its writers, the report JSON, a failed run that must leave no
// lag behind, the end-to-end forced-stall pipeline (a gated shard join flips
// /healthz to 503 with a root-cause chain naming the shard, then recovers to
// 200), and a concurrent scrape-during-run test that runs under TSan in CI.
//
// The raw client sockets below are the test's HTTP client; the raw-socket
// lint rule is src/-only, so tests may speak to the server directly.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "fault/fault_injector.h"
#include "fault/faulty_spill_store.h"
#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "json_test_util.h"
#include "obs/health.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ops/parallel_pipeline.h"
#include "storage/recovering_spill_store.h"
#include "storage/simulated_disk.h"
#include "test_util.h"

namespace pjoin {
namespace {

using pjoin::testing::ElementsBuilder;
using pjoin::testing::GatedPJoin;
using pjoin::testing::JsonParser;
using pjoin::testing::JsonValue;
using pjoin::testing::KeyPayloadSchema;
using pjoin::testing::KeyPunct;
using pjoin::testing::KP;
using pjoin::testing::TestGate;

// ---- HTTP client (same idiom as http_server_test.cc) ----

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

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// Every test here shares the process-global registry and tracer; reset both
// so leakage between tests (and from other suites in this binary) cannot
// flip a verdict.
class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    obs::MetricsRegistry::Global().ResetForTest();
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().ResetForTest();
  }
};

// ---- EvaluateHealth classification (synthetic clocks, no threads) ----

/// The verdict on the global registry as it stands, at `now_us`.
obs::HealthReport EvaluateGlobal(TimeMicros now_us) {
  return obs::EvaluateHealth(obs::MetricsRegistry::Global().Snapshot(),
                             now_us);
}

constexpr char kSpillCause[] =
    "spill storage degraded (global-threshold spill victims or fallback "
    "store active)";

/// Publishes shard `shard`'s dispatch gauge as its worker does.
void SetDispatch(int shard, TimeMicros dispatch_us) {
  obs::MetricsRegistry::Global()
      .GetGauge("pjoin_shard_dispatch_us",
                "pipeline=parallel,shard=" + std::to_string(shard))
      .Set(dispatch_us);
}

TEST_F(HealthTest, ClassifiesStalledWithRootCauseChain) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  SetDispatch(2, 1000);
  registry.GetGauge("pjoin_ring_occupancy", "edge=shard_2").Set(31);
  registry.GetGauge("pjoin_punct_pending_rounds", "pipeline=parallel").Set(3);
  const size_t registered = registry.Snapshot().size();
  const obs::HealthReport report =
      EvaluateGlobal(/*now_us=*/1000 + 2000000);  // 2s behind
  EXPECT_EQ(report.status, obs::HealthStatus::kStalled);
  EXPECT_EQ(report.stalled_frontiers, 1);
  ASSERT_EQ(report.causes.size(), 1u);
  // The chain names the shard, the lag, the ring occupancies and the
  // release rounds the merger still waits on.
  EXPECT_EQ(report.causes[0],
            "shard 2 frontier stalled 2.0s behind router; ring edge=shard_2 "
            "occupancy 31; ring edge=out_2 occupancy 0; 3 punct release "
            "rounds pending at merger");
  // Evaluation reads one snapshot: the out_2 edge it reported as 0 was not
  // registered by the read.
  EXPECT_EQ(registry.Snapshot().size(), registered);
}

TEST_F(HealthTest, ModerateLagIsDegradedNotStalled) {
  SetDispatch(0, 1000);
  SetDispatch(1, 0);  // idle: its ring is empty
  const obs::HealthReport report =
      EvaluateGlobal(/*now_us=*/1000 + 500000);  // 500ms: in the band
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded);
  EXPECT_EQ(report.stalled_frontiers, 0);
  EXPECT_EQ(report.degraded_signals, 1);
  ASSERT_EQ(report.frontiers.size(), 2u);
  EXPECT_EQ(report.frontiers[0].lag_us, 500000);
  EXPECT_EQ(report.frontiers[1].lag_us, 0);
}

TEST_F(HealthTest, UnfiredPurgesAloneNeverFlipTheVerdict) {
  // Lazy purge makes a pending purge set normal: informational only.
  obs::MetricsRegistry::Global()
      .GetGauge("pjoin_puncts_since_purge", "pipeline=parallel,shard=0")
      .Set(3);
  const obs::HealthReport report = EvaluateGlobal(/*now_us=*/99000000);
  EXPECT_EQ(report.status, obs::HealthStatus::kOk);
  EXPECT_EQ(report.unfired_purges, 3);
}

TEST_F(HealthTest, SpillDegradationIsADegradedSignal) {
  obs::MetricsRegistry::Global().GetGauge("pjoin_spill_degraded").Set(1);
  const obs::HealthReport report = EvaluateGlobal(/*now_us=*/1000);
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded);
  EXPECT_EQ(report.degraded_signals, 1);
  ASSERT_EQ(report.causes.size(), 1u);
  EXPECT_EQ(report.causes[0], kSpillCause);
}

// A spill store that gives up on its primary and continues on the fallback
// store is a degraded-mode signal, as a spill manager on global-threshold
// victims is: both set the same sticky gauge.
TEST_F(HealthTest, SpillStoreFallbackIsDegraded) {
  IoFaultSpec spec;
  spec.permanent_write_failure_after = 0;  // every append to the primary fails
  RecoveringSpillStore store(std::make_unique<FaultySpillStore>(
      std::make_unique<SimulatedDisk>(), spec,
      std::make_shared<FaultInjector>(/*seed=*/1)));
  ASSERT_TRUE(store.AppendBatch(0, {"r0", "r1"}).ok());
  ASSERT_TRUE(store.degraded());

  const obs::HealthReport report = EvaluateGlobal(/*now_us=*/1000);
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded) << report.ToJson();
  EXPECT_EQ(report.degraded_signals, 1);
  ASSERT_EQ(report.causes.size(), 1u);
  EXPECT_EQ(report.causes[0], kSpillCause);
}

TEST_F(HealthTest, ReportJsonIsParseableAndComplete) {
  SetDispatch(1, 1000);
  obs::HealthReport report = EvaluateGlobal(/*now_us=*/5000000);
  JsonValue root;
  ASSERT_TRUE(JsonParser(report.ToJson()).Parse(&root)) << report.ToJson();
  EXPECT_EQ(root.Find("status")->str, "stalled");
  EXPECT_EQ(root.Find("stalled_frontiers")->number, 1.0);
  ASSERT_NE(root.Find("causes"), nullptr);
  EXPECT_EQ(root.Find("causes")->array.size(), 1u);
  const JsonValue* frontiers = root.Find("frontiers");
  ASSERT_NE(frontiers, nullptr);
  ASSERT_EQ(frontiers->array.size(), 1u);
  const JsonValue& frontier = frontiers->array[0];
  EXPECT_EQ(frontier.Find("shard")->number, 1.0);
  EXPECT_EQ(frontier.Find("dispatch_us")->number, 1000.0);
  EXPECT_EQ(frontier.Find("lag_us")->number, 4999000.0);
  // Cause text round-trips through the shared JSON escaper.
  report.causes = {"needs \"escaping\"\n\\"};
  JsonValue escaped;
  ASSERT_TRUE(JsonParser(report.ToJson()).Parse(&escaped)) << report.ToJson();
  EXPECT_EQ(escaped.Find("causes")->array[0].str, "needs \"escaping\"\n\\");
}

// A shard that fails keeps draining its ring without joining, so a run that
// fails must not read as a stall once it has returned, however late the
// probe comes.
TEST_F(HealthTest, FailedRunLeavesNoLagBehind) {
  const SchemaPtr schema = KeyPayloadSchema();
  JoinOptions jopts;
  jopts.violation_policy = ViolationPolicy::kFail;
  // Key 1 arrives after its own punctuation: the owning shard fails there,
  // ahead of the punctuations routed to it after the late tuple.
  const std::vector<StreamElement> l = ElementsBuilder()
                                           .Tup(KP(schema, 1, 0))
                                           .Punct(KeyPunct(1))
                                           .Tup(KP(schema, 1, 2))
                                           .Punct(KeyPunct(1))
                                           .Finish();
  const std::vector<StreamElement> r = ElementsBuilder()
                                           .Tup(KP(schema, 1, 9))
                                           .Punct(KeyPunct(1))
                                           .Finish();
  ParallelPipelineOptions popts;
  popts.num_shards = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(schema, schema, jopts); },
      popts);
  const Status st = pipeline.Run(l, r);
  ASSERT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();

  const obs::HealthReport report =
      EvaluateGlobal(obs::TraceNowMicros() + 60 * kMicrosPerSecond);
  EXPECT_EQ(report.status, obs::HealthStatus::kOk) << report.ToJson();
  EXPECT_EQ(report.stalled_frontiers, 0);
  EXPECT_EQ(report.frontiers.size(), 2u);
}

// ---- The forced-stall pipeline ----

TEST_F(HealthTest, HealthzFlipsTo503OnStallAndRecoversTo200) {
  const SchemaPtr schema = KeyPayloadSchema();
  // Arrival order: two free tuples (one result), then the tuple the gate
  // blocks on, then the punctuations the stalled shard can never reach.
  ElementsBuilder left, right;
  left.Tup(KP(schema, 1, 10));
  right.Tup(KP(schema, 1, 20));
  left.Tup(KP(schema, 2, 11));  // 3rd tuple: the shard blocks here
  left.Punct(KeyPunct(1));
  right.Punct(KeyPunct(1));
  right.Tup(KP(schema, 2, 21));
  left.Punct(KeyPunct(2));
  right.Punct(KeyPunct(2));
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  TestGate gate;
  JoinOptions jopts;
  jopts.runtime.purge_threshold = 1;
  jopts.runtime.propagate_count_threshold = 1;
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  popts.batch_size = 1;
  ParallelJoinPipeline pipeline(
      [&](int) {
        return std::make_unique<GatedPJoin>(schema, schema, jopts, &gate,
                                            /*free_tuples=*/2);
      },
      popts);
  std::vector<std::string> results;
  Mutex results_mu;
  pipeline.set_result_callback([&](const Tuple& t) {
    MutexLock lock(results_mu);
    results.push_back(t.ToString());
  });

  obs::IntrospectionServer server;
  ASSERT_TRUE(server.Start(0).ok());

  // Healthy before the run.
  EXPECT_EQ(Get(server.port(), "/healthz").find("HTTP/1.1 200"), 0u);

  std::thread runner([&] {
    const Status st = pipeline.Run(l, r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  // The gate wedges the shard behind the routed punctuations; once the
  // shard trails the router by kStallThresholdUs, /healthz must flip to 503
  // naming shard 0. The gate stays shut until a probe has seen it.
  std::string stalled_response;
  for (int i = 0; i < 1000; ++i) {
    stalled_response = Get(server.port(), "/healthz");
    if (stalled_response.find("HTTP/1.1 503") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(stalled_response.find("HTTP/1.1 503"), 0u) << stalled_response;
  JsonValue root;
  ASSERT_TRUE(JsonParser(Body(stalled_response)).Parse(&root))
      << stalled_response;
  EXPECT_EQ(root.Find("status")->str, "stalled");
  EXPECT_GE(root.Find("stalled_frontiers")->number, 1.0);
  ASSERT_FALSE(root.Find("causes")->array.empty());
  bool named = false;
  for (const JsonValue& cause : root.Find("causes")->array) {
    if (cause.str.find("shard 0 frontier") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << Body(stalled_response);

  // Release the shard: the run completes and the frontier catches up.
  gate.Open();
  runner.join();
  std::string healthy_response;
  for (int i = 0; i < 1000; ++i) {
    healthy_response = Get(server.port(), "/healthz");
    if (healthy_response.find("HTTP/1.1 200") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(healthy_response.find("HTTP/1.1 200"), 0u) << healthy_response;
  {
    MutexLock lock(results_mu);
    EXPECT_EQ(results.size(), 2u);  // both keys matched once
  }

  server.Stop();
}

// ---- Concurrent scrape (the TSan leg) ----

// A real pipeline run, scraped concurrently by /healthz probes and direct
// EvaluateHealth calls on live registry snapshots. Run under TSan in CI: the
// assertion is the absence of data races between the health read path and
// the router/shard/merger write path.
TEST_F(HealthTest, ConcurrentScrapeDuringRunIsSafe) {
  DomainSpec domain;
  domain.window_size = 16;
  StreamSpec spec;
  spec.num_tuples = 4000;
  spec.punct_mean_interarrival_tuples = 8.0;
  spec.flush_punctuations_at_end = true;
  GeneratedStreams streams = GenerateStreams(domain, spec, spec, /*seed=*/42);

  obs::IntrospectionServer server;
  ASSERT_TRUE(server.Start(0).ok());

  ParallelPipelineOptions popts;
  popts.num_shards = 4;
  popts.batch_size = 32;
  ParallelJoinPipeline pipeline(
      [&](int) {
        JoinOptions jopts;
        jopts.runtime.purge_threshold = 1;
        return std::make_unique<PJoin>(streams.schema_a, streams.schema_b,
                                       jopts);
      },
      popts);
  std::atomic<int64_t> results{0};
  pipeline.set_result_callback([&](const Tuple&) { results.fetch_add(1); });

  std::thread runner([&] {
    const Status st = pipeline.Run(streams.a, streams.b);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  // Evaluate live snapshots and scrape /healthz until the run finishes.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const obs::HealthReport report =
          EvaluateGlobal(obs::TraceNowMicros());
      EXPECT_NE(HealthStatusName(report.status), nullptr);
      EXPECT_FALSE(Get(server.port(), "/healthz").empty());
    }
  });
  runner.join();
  done.store(true);
  scraper.join();
  server.Stop();
  EXPECT_GT(results.load(), 0);
}

}  // namespace
}  // namespace pjoin

// Tests for the stall-diagnosis layer (src/obs/health.*): classification of
// each shard's dispatch gauge on synthetic clocks, the report JSON, a failed
// run that must leave no lag behind, the end-to-end forced-stall pipeline (a
// gated shard join flips /healthz to 503 with a root-cause chain naming the
// shard, then recovers to 200), flow-id sampling determinism with Chrome
// flow arrows, and a concurrent scrape-during-run test that runs under TSan
// in CI.
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
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "json_test_util.h"
#include "obs/chrome_trace.h"
#include "obs/health.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ops/parallel_pipeline.h"
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

// Every test here shares the process-global monitor, registry and tracer;
// reset them all so leakage between tests (and from other suites in this
// binary) cannot flip a verdict.
class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    obs::HealthMonitor::Global().ResetForTest();
    obs::MetricsRegistry::Global().ResetForTest();
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().ResetForTest();
  }
};

// ---- EvaluateNow classification (synthetic clocks, no threads) ----

obs::HealthOptions TightThresholds() {
  obs::HealthOptions options;
  options.stall_threshold_us = 1000000;    // 1s
  options.degraded_threshold_us = 250000;  // 250ms
  return options;
}

/// Publishes shard `shard`'s dispatch gauge as its worker does.
void SetDispatch(int shard, TimeMicros dispatch_us) {
  obs::MetricsRegistry::Global()
      .GetGauge("pjoin_shard_dispatch_us",
                "pipeline=parallel,shard=" + std::to_string(shard))
      .Set(dispatch_us);
}

TEST_F(HealthTest, ClassifiesStalledWithRootCauseChain) {
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  SetDispatch(2, 1000);
  registry.GetGauge("pjoin_ring_occupancy", "edge=shard_2").Set(31);
  registry.GetGauge("pjoin_punct_pending_rounds", "pipeline=parallel").Set(3);
  const size_t registered = registry.Snapshot().size();
  const obs::HealthReport report =
      monitor.EvaluateNow(/*now_us=*/1000 + 2000000);  // 2s behind
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
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  SetDispatch(0, 1000);
  SetDispatch(1, 0);  // idle: its ring is empty
  const obs::HealthReport report =
      monitor.EvaluateNow(/*now_us=*/1000 + 500000);  // 500ms: in the band
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded);
  EXPECT_EQ(report.stalled_frontiers, 0);
  EXPECT_EQ(report.degraded_signals, 1);
  ASSERT_EQ(report.frontiers.size(), 2u);
  EXPECT_EQ(report.frontiers[0].lag_us, 500000);
  EXPECT_EQ(report.frontiers[1].lag_us, 0);
}

TEST_F(HealthTest, UnfiredPurgesAloneNeverFlipTheVerdict) {
  // Lazy purge makes a pending purge set normal: informational only.
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::MetricsRegistry::Global()
      .GetGauge("pjoin_puncts_since_purge", "pipeline=parallel,shard=0")
      .Set(3);
  const obs::HealthReport report = monitor.EvaluateNow(/*now_us=*/99000000);
  EXPECT_EQ(report.status, obs::HealthStatus::kOk);
  EXPECT_EQ(report.unfired_purges, 3);
}

TEST_F(HealthTest, SpillDegradationIsADegradedSignal) {
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::MetricsRegistry::Global().GetGauge("pjoin_spill_degraded").Set(1);
  const obs::HealthReport report = monitor.EvaluateNow(/*now_us=*/1000);
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded);
  ASSERT_EQ(report.causes.size(), 1u);
  EXPECT_NE(report.causes[0].find("spill storage degraded"),
            std::string::npos);
}

TEST_F(HealthTest, ReportJsonIsParseableAndComplete) {
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  SetDispatch(1, 1000);
  obs::HealthReport report = monitor.EvaluateNow(/*now_us=*/5000000);
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

  const obs::HealthReport report = obs::HealthMonitor::Global().EvaluateNow(
      obs::TraceNowMicros() + 60 * kMicrosPerSecond);
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
  popts.out_ring_batches = 2;
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

  obs::HealthOptions hopts;
  hopts.period_us = 10000;             // 10ms
  hopts.stall_threshold_us = 100000;   // 100ms
  hopts.degraded_threshold_us = 50000;
  obs::HealthMonitor::Global().Start(hopts);

  obs::IntrospectionServer server;
  ASSERT_TRUE(server.Start(0).ok());

  // Healthy before the run.
  EXPECT_EQ(Get(server.port(), "/healthz").find("HTTP/1.1 200"), 0u);

  std::thread runner([&] {
    const Status st = pipeline.Run(l, r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  // The gate wedges the shard behind the routed punctuations; within a few
  // watchdog periods /healthz must flip to 503 naming shard 0.
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

  // /debug/stalls sees the same verdict while it is current.
  const std::string stalls_page = Get(server.port(), "/debug/stalls");
  EXPECT_NE(stalls_page.find("current: stalled"), std::string::npos)
      << stalls_page;

  // /healthz evaluates freshly per request; history and the counter are
  // recorded by the watchdog's periodic pass.
  // Hold the gate until the watchdog has seen the stall too, so recovery
  // below cannot race it out of ever observing the stalled state.
  for (int i = 0; i < 1000; ++i) {
    if (!obs::HealthMonitor::Global().StallHistory().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(obs::HealthMonitor::Global().StallHistory().empty());

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

  obs::HealthMonitor::Global().Stop();
  server.Stop();

  // The watchdog recorded the transition: history, counter.
  const std::vector<obs::HealthReport> history =
      obs::HealthMonitor::Global().StallHistory();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history[0].status, obs::HealthStatus::kStalled);
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetCounter("pjoin_stalls_diagnosed_total")
                .Get(),
            1);
  // The watchdog fed the shard's lag histogram while the stall lasted.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetHistogram("pjoin_frontier_lag_seconds", "shard=0",
                              /*unit_scale=*/1e-6)
                .Count(),
            0);
}

// ---- Flow-id sampling ----

#if PJOIN_TRACING

struct FlowIds {
  std::set<uint64_t> starts;
  std::set<uint64_t> steps;
  std::set<uint64_t> ends;
};

FlowIds RunSampledPipeline(const SchemaPtr& schema,
                           const std::vector<StreamElement>& l,
                           const std::vector<StreamElement>& r,
                           uint64_t period) {
  obs::Tracer::Global().ResetForTest();
  obs::Tracer::Global().Start();
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  popts.batch_size = 1;
  popts.flow_sample_period = period;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(schema, schema); }, popts);
  pipeline.set_result_callback([](const Tuple&) {});
  const Status st = pipeline.Run(l, r);
  EXPECT_TRUE(st.ok()) << st.ToString();
  obs::Tracer::Global().Stop();
  FlowIds ids;
  for (const obs::TraceEvent& e : obs::Tracer::Global().Drain()) {
    if (std::string_view(e.name) != "tuple_path") continue;
    if (e.phase == obs::TracePhase::kFlowStart) ids.starts.insert(e.flow_id);
    if (e.phase == obs::TracePhase::kFlowStep) ids.steps.insert(e.flow_id);
    if (e.phase == obs::TracePhase::kFlowEnd) ids.ends.insert(e.flow_id);
  }
  return ids;
}

TEST_F(HealthTest, FlowSamplingIsDeterministicForAFixedInput) {
  const SchemaPtr schema = KeyPayloadSchema();
  ElementsBuilder left, right;
  for (int64_t k = 0; k < 8; ++k) {
    left.Tup(KP(schema, k, 10 + k));
    right.Tup(KP(schema, k, 20 + k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  const FlowIds first = RunSampledPipeline(schema, l, r, /*period=*/4);
  // Flow ids are routed-tuple ordinals: with period 4 the sampled ordinals
  // are 1, 5, 9, 13 out of the 16 routed tuples.
  EXPECT_EQ(first.starts, (std::set<uint64_t>{1, 5, 9, 13}));
  // Every sampled batch was stepped by the shard; ends ride the next
  // flushed OutBatch, so they are a non-empty subset of the starts.
  EXPECT_EQ(first.steps, first.starts);
  EXPECT_FALSE(first.ends.empty());
  for (const uint64_t id : first.ends) EXPECT_EQ(first.starts.count(id), 1u);

  // Same input, fresh pipeline: the identical sample set.
  const FlowIds second = RunSampledPipeline(schema, l, r, /*period=*/4);
  EXPECT_EQ(second.starts, first.starts);
  EXPECT_EQ(second.steps, first.steps);

  // period=1 samples every routed tuple (the 1 % period == 0 edge case).
  const FlowIds all = RunSampledPipeline(schema, l, r, /*period=*/1);
  EXPECT_EQ(all.starts.size(), 16u);

  // period=0 disables sampling entirely.
  const FlowIds none = RunSampledPipeline(schema, l, r, /*period=*/0);
  EXPECT_TRUE(none.starts.empty());
}

TEST_F(HealthTest, SampledFlowsRenderAsChromeFlowArrows) {
  const SchemaPtr schema = KeyPayloadSchema();
  ElementsBuilder left, right;
  for (int64_t k = 0; k < 4; ++k) {
    left.Tup(KP(schema, k, 10 + k));
    right.Tup(KP(schema, k, 20 + k));
  }
  const std::vector<StreamElement> l = left.Finish();
  const std::vector<StreamElement> r = right.Finish();

  obs::Tracer::Global().ResetForTest();
  obs::Tracer::Global().Start();
  ParallelPipelineOptions popts;
  popts.num_shards = 1;
  popts.batch_size = 1;
  popts.flow_sample_period = 2;
  ParallelJoinPipeline pipeline(
      [&](int) { return std::make_unique<PJoin>(schema, schema); }, popts);
  pipeline.set_result_callback([](const Tuple&) {});
  ASSERT_TRUE(pipeline.Run(l, r).ok());
  obs::Tracer::Global().Stop();

  std::ostringstream os;
  obs::WriteChromeTrace(os, obs::Tracer::Global().Drain(),
                        obs::Tracer::Global().ThreadNames());
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root));

  std::set<double> start_ids, step_ids, end_ids;
  for (const JsonValue& e : root.Find("traceEvents")->array) {
    const JsonValue* cat = e.Find("cat");
    if (cat == nullptr || cat->str != "flow") continue;
    EXPECT_EQ(e.Find("name")->str, "tuple_path");
    ASSERT_NE(e.Find("id"), nullptr);
    const std::string& ph = e.Find("ph")->str;
    if (ph == "s") start_ids.insert(e.Find("id")->number);
    if (ph == "t") step_ids.insert(e.Find("id")->number);
    if (ph == "f") {
      end_ids.insert(e.Find("id")->number);
      // Perfetto binds the arrow to the enclosing slice via bp=e.
      ASSERT_NE(e.Find("bp"), nullptr);
      EXPECT_EQ(e.Find("bp")->str, "e");
    }
  }
  // 8 routed tuples, period 2: ordinals 1, 3, 5, 7.
  EXPECT_EQ(start_ids, (std::set<double>{1, 3, 5, 7}));
  EXPECT_EQ(step_ids, start_ids);
  EXPECT_FALSE(end_ids.empty());
  for (const double id : end_ids) EXPECT_EQ(start_ids.count(id), 1u);
}

#endif  // PJOIN_TRACING

// ---- Concurrent scrape (the TSan leg) ----

// A real pipeline run, scraped concurrently by the watchdog thread,
// /healthz probes and direct EvaluateNow calls. Run under TSan in CI: the
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

  obs::HealthOptions hopts;
  hopts.period_us = 1000;  // 1ms: hammer the read path
  obs::HealthMonitor::Global().Start(hopts);
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
  // Scrape every surface the watchdog also reads until the run finishes.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const obs::HealthReport report =
          obs::HealthMonitor::Global().EvaluateNow();
      EXPECT_NE(HealthStatusName(report.status), nullptr);
      EXPECT_FALSE(Get(server.port(), "/healthz").empty());
      EXPECT_FALSE(Get(server.port(), "/debug/stalls").empty());
    }
  });
  runner.join();
  done.store(true);
  scraper.join();
  obs::HealthMonitor::Global().Stop();
  server.Stop();
  EXPECT_GT(results.load(), 0);
}

}  // namespace
}  // namespace pjoin

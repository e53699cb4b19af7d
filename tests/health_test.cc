// Tests for the stall-diagnosis layer (src/obs/progress.* + src/obs/health.*):
// frontier-lag math on synthetic clocks, /healthz classification, the
// end-to-end forced-stall pipeline (a gated shard join flips /healthz to 503
// with a root-cause chain naming the shard, then recovers to 200), flow-id
// sampling determinism with Chrome flow arrows, and a concurrent
// scrape-during-run test that runs under TSan in CI.
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
#include "exec/registry.h"
#include "gen/stream_generator.h"
#include "join/pjoin.h"
#include "json_test_util.h"
#include "obs/chrome_trace.h"
#include "obs/health.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/progress.h"
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

// Every test here shares the process-global trackers; reset them all so
// leakage between tests (and from other suites in this binary) cannot flip a
// verdict.
class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    obs::HealthMonitor::Global().ResetForTest();
    obs::FrontierTracker::Global().ResetForTest();
    obs::MetricsRegistry::Global().ResetForTest();
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().ResetForTest();
  }
};

// ---- Frontier math (synthetic clocks, no threads) ----

TEST_F(HealthTest, LagIsZeroWhileCaughtUp) {
  obs::FrontierTracker& t = obs::FrontierTracker::Global();
  t.NoteIngress(0, "constant", 0, /*now_us=*/1000, "punct<k=1>");
  t.NoteProcessed(0, "constant", 0, /*now_us=*/1500);
  const obs::FrontierSnapshot snap = t.Snap();
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].ingress_count, 1);
  EXPECT_EQ(snap.cells[0].processed_count, 1);
  EXPECT_EQ(snap.cells[0].LagMicros(/*now_us=*/999999), 0);
  EXPECT_EQ(snap.cells[0].last_punct, "punct<k=1>");
}

TEST_F(HealthTest, LagGrowsFromTheFirstUnprocessedIngress) {
  obs::FrontierTracker& t = obs::FrontierTracker::Global();
  t.NoteIngress(1, "constant", 2, /*now_us=*/1000, "p1");
  t.NoteIngress(1, "constant", 2, /*now_us=*/3000, "p2");
  const obs::FrontierSnapshot snap = t.Snap();
  ASSERT_EQ(snap.cells.size(), 1u);
  const obs::FrontierCell& cell = snap.cells[0];
  EXPECT_EQ(cell.side, 1);
  EXPECT_EQ(cell.scheme, "constant");
  EXPECT_EQ(cell.shard, 2);
  // behind_since pins to the FIRST ingress that found the shard behind, not
  // the latest one: the lag measures the oldest outstanding punctuation.
  EXPECT_EQ(cell.behind_since_us, 1000);
  EXPECT_EQ(cell.LagMicros(/*now_us=*/5000), 4000);
  // Never negative, even with a stale clock sample.
  EXPECT_EQ(cell.LagMicros(/*now_us=*/500), 0);
}

TEST_F(HealthTest, CatchingUpClearsTheLag) {
  obs::FrontierTracker& t = obs::FrontierTracker::Global();
  t.NoteIngress(0, "range", 0, 1000, "p1");
  t.NoteIngress(0, "range", 0, 2000, "p2");
  t.NoteProcessed(0, "range", 0, 4000);
  // Still one behind: the lag persists.
  EXPECT_GT(t.Snap().cells[0].LagMicros(5000), 0);
  t.NoteProcessed(0, "range", 0, 6000);
  // Caught up: cleared, and a later evaluation sees zero.
  EXPECT_EQ(t.Snap().cells[0].LagMicros(999999), 0);
  // A fresh ingress re-arms from its own timestamp.
  t.NoteIngress(0, "range", 0, 10000, "p3");
  EXPECT_EQ(t.Snap().cells[0].LagMicros(11000), 1000);
}

TEST_F(HealthTest, PurgeExpectationLifecycle) {
  obs::FrontierTracker& t = obs::FrontierTracker::Global();
  t.NotePurgeExpected(3, /*resident_tuples=*/10, /*now_us=*/1000);
  t.NotePurgeExpected(3, /*resident_tuples=*/5, /*now_us=*/2000);
  obs::FrontierSnapshot snap = t.Snap();
  ASSERT_EQ(snap.purges.size(), 1u);
  EXPECT_EQ(snap.purges[0].shard, 3);
  EXPECT_EQ(snap.purges[0].pending_puncts, 2);
  EXPECT_EQ(snap.purges[0].pending_tuples, 15);
  EXPECT_EQ(snap.purges[0].oldest_since_us, 1000);  // first pending wins
  t.NotePurgeFired(3);
  snap = t.Snap();
  EXPECT_EQ(snap.purges[0].pending_puncts, 0);
  EXPECT_EQ(snap.purges[0].pending_tuples, 0);
  EXPECT_EQ(snap.purges[0].oldest_since_us, 0);
}

// ---- EvaluateNow classification ----

obs::HealthOptions TightThresholds() {
  obs::HealthOptions options;
  options.stall_threshold_us = 1000000;    // 1s
  options.degraded_threshold_us = 250000;  // 250ms
  return options;
}

TEST_F(HealthTest, ClassifiesStalledWithRootCauseChain) {
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::FrontierTracker::Global().NoteIngress(0, "constant", 2, 1000,
                                             "punct<k=7>");
  const obs::HealthReport report =
      monitor.EvaluateNow(/*now_us=*/1000 + 2000000);  // 2s behind
  EXPECT_EQ(report.status, obs::HealthStatus::kStalled);
  EXPECT_EQ(report.stalled_frontiers, 1);
  ASSERT_EQ(report.causes.size(), 1u);
  // The chain names the shard, the cell, the lag, and the ring occupancies.
  EXPECT_NE(report.causes[0].find("shard 2 frontier (left/constant)"),
            std::string::npos)
      << report.causes[0];
  EXPECT_NE(report.causes[0].find("stalled 2.0s behind router"),
            std::string::npos)
      << report.causes[0];
  EXPECT_NE(report.causes[0].find("last punct: punct<k=7>"),
            std::string::npos)
      << report.causes[0];
  EXPECT_NE(report.causes[0].find("ring edge=out_2"), std::string::npos)
      << report.causes[0];
}

TEST_F(HealthTest, ModerateLagIsDegradedNotStalled) {
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::FrontierTracker::Global().NoteIngress(1, "constant", 0, 1000, "p");
  const obs::HealthReport report =
      monitor.EvaluateNow(/*now_us=*/1000 + 500000);  // 500ms: in the band
  EXPECT_EQ(report.status, obs::HealthStatus::kDegraded);
  EXPECT_EQ(report.stalled_frontiers, 0);
  EXPECT_EQ(report.degraded_signals, 1);
}

TEST_F(HealthTest, UnfiredPurgesAloneNeverFlipTheVerdict) {
  // Lazy purge makes a pending purge set normal: informational only.
  obs::HealthMonitor& monitor = obs::HealthMonitor::Global();
  monitor.Configure(TightThresholds());
  obs::FrontierTracker::Global().NotePurgeExpected(0, 100, 1000);
  const obs::HealthReport report = monitor.EvaluateNow(/*now_us=*/99000000);
  EXPECT_EQ(report.status, obs::HealthStatus::kOk);
  EXPECT_EQ(report.unfired_purges, 1);
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
  obs::FrontierTracker::Global().NoteIngress(0, "constant", 1, 1000,
                                             "needs \"escaping\"\n");
  const obs::HealthReport report = monitor.EvaluateNow(/*now_us=*/5000000);
  JsonValue root;
  ASSERT_TRUE(JsonParser(report.ToJson()).Parse(&root)) << report.ToJson();
  EXPECT_EQ(root.Find("status")->str, "stalled");
  EXPECT_EQ(root.Find("stalled_frontiers")->number, 1.0);
  ASSERT_NE(root.Find("causes"), nullptr);
  EXPECT_EQ(root.Find("causes")->array.size(), 1u);
  const JsonValue* frontiers = root.Find("frontiers");
  ASSERT_NE(frontiers, nullptr);
  ASSERT_EQ(frontiers->array.size(), 1u);
  const JsonValue& cell = frontiers->array[0];
  EXPECT_EQ(cell.Find("side")->str, "left");
  EXPECT_EQ(cell.Find("scheme")->str, "constant");
  EXPECT_EQ(cell.Find("shard")->number, 1.0);
  EXPECT_EQ(cell.Find("ingress")->number, 1.0);
  EXPECT_EQ(cell.Find("processed")->number, 0.0);
  EXPECT_GT(cell.Find("lag_us")->number, 0.0);
  // The raw punctuation text round-trips through the JSON escaper.
  EXPECT_EQ(cell.Find("last_punct")->str, "needs \"escaping\"\n");
}

// ---- The forced-stall pipeline ----

/// Records kStallDiagnosed dispatches from the watchdog thread.
class StallListener : public EventListener {
 public:
  std::string_view name() const override { return "stall-recorder"; }
  Status HandleEvent(const Event& e) override {
    MutexLock lock(mu_);
    details_.push_back(e.detail);
    return Status::OK();
  }
  std::vector<std::string> details() const {
    MutexLock lock(mu_);
    return details_;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::string> details_ GUARDED_BY(mu_);
};

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

  // Watchdog + listener: the stall must also dispatch kStallDiagnosed.
  EventRegistry events;
  StallListener listener;
  events.Register(EventType::kStallDiagnosed, &listener);
  obs::HealthOptions hopts;
  hopts.period_us = 10000;             // 10ms
  hopts.stall_threshold_us = 100000;   // 100ms
  hopts.degraded_threshold_us = 50000;
  hopts.events = &events;
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

  // /healthz evaluates freshly per request; history, the kStallDiagnosed
  // event and the counter are recorded by the watchdog's periodic pass.
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

  // The watchdog recorded the transition: history, event, counter.
  const std::vector<obs::HealthReport> history =
      obs::HealthMonitor::Global().StallHistory();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history[0].status, obs::HealthStatus::kStalled);
  const std::vector<std::string> details = listener.details();
  ASSERT_FALSE(details.empty());
  EXPECT_NE(details[0].find("shard 0 frontier"), std::string::npos)
      << details[0];
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetCounter("pjoin_stalls_diagnosed_total")
                .Get(),
            1);
  // The watchdog fed the per-cell lag histogram while the stall lasted.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetHistogram("pjoin_frontier_lag_seconds",
                              "side=left,scheme=constant,shard=0",
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

// A real pipeline run with repartitioning enabled, scraped concurrently by
// the watchdog thread, /healthz probes and direct EvaluateNow calls. Run
// under TSan in CI: the assertion is the absence of data races between the
// frontier/health read path and the router/shard/merger write path.
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
  popts.repartition.enabled = true;
  popts.repartition.min_tuples = 256;
  popts.repartition.check_interval = 256;
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
      const obs::FrontierSnapshot snap = obs::FrontierTracker::Global().Snap();
      EXPECT_GE(snap.released_total, 0);
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

// Tests for the observability layer (src/obs/): metrics registry handle
// semantics, trace-ring overflow behavior, concurrent emit/drain (exercised
// under TSan in CI), and Chrome trace_event export validated by an in-test
// JSON parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "json_test_util.h"
#include "obs/chrome_trace.h"
#include "obs/introspection.h"
#include "obs/metrics_registry.h"
#include "obs/promtext.h"
#include "obs/trace.h"

namespace pjoin {
namespace {

using pjoin::testing::JsonParser;
using pjoin::testing::JsonValue;

// ---- MetricsRegistry ----

class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Global().ResetForTest(); }
  void TearDown() override { obs::MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(MetricsRegistryTest, SameNameAndLabelsShareOneCell) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter a = registry.GetCounter("test.counter", "side=l");
  obs::Counter b = registry.GetCounter("test.counter", "side=l");
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(a.Get(), 7);
  EXPECT_EQ(b.Get(), 7);
  EXPECT_EQ(registry.Snapshot().size(), 1u);
}

TEST_F(MetricsRegistryTest, DifferentLabelsAreDistinctMetrics) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter l = registry.GetCounter("test.counter", "side=l");
  obs::Counter r = registry.GetCounter("test.counter", "side=r");
  obs::Counter bare = registry.GetCounter("test.counter");
  l.Add(1);
  r.Add(2);
  bare.Add(4);
  EXPECT_EQ(l.Get(), 1);
  EXPECT_EQ(r.Get(), 2);
  EXPECT_EQ(bare.Get(), 4);
  EXPECT_EQ(registry.Snapshot().size(), 3u);
}

TEST_F(MetricsRegistryTest, DefaultHandlesAreInert) {
  obs::Counter counter;
  obs::Gauge gauge;
  EXPECT_FALSE(counter.bound());
  EXPECT_FALSE(gauge.bound());
  counter.Add(5);  // must not crash
  gauge.Set(5);
  gauge.Add(1);
  EXPECT_EQ(counter.Get(), 0);
  EXPECT_EQ(gauge.Get(), 0);
}

TEST_F(MetricsRegistryTest, GaugeIsLastWriteWins) {
  obs::Gauge gauge =
      obs::MetricsRegistry::Global().GetGauge("test.depth", "buf=x");
  gauge.Set(10);
  gauge.Set(3);
  gauge.Add(2);
  EXPECT_EQ(gauge.Get(), 5);
}

TEST_F(MetricsRegistryTest, SnapshotIsSortedByNameThenLabels) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("zeta");
  registry.GetCounter("alpha", "b=2");
  registry.GetCounter("alpha", "a=1");
  const std::vector<obs::MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[0].labels, "a=1");
  EXPECT_EQ(snapshot[1].name, "alpha");
  EXPECT_EQ(snapshot[1].labels, "b=2");
  EXPECT_EQ(snapshot[2].name, "zeta");
}

TEST_F(MetricsRegistryTest, ToJsonParsesAndCarriesValues) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("spill.pages", "store=sim").Add(42);
  registry.GetGauge("buffer.depth", "buf=input_l").Set(-7);
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root));
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type, JsonValue::Type::kArray);
  ASSERT_EQ(metrics->array.size(), 2u);
  // Sorted: buffer.depth < spill.pages.
  const JsonValue& depth = metrics->array[0];
  EXPECT_EQ(depth.Find("name")->str, "buffer.depth");
  EXPECT_EQ(depth.Find("labels")->str, "buf=input_l");
  EXPECT_EQ(depth.Find("kind")->str, "gauge");
  EXPECT_EQ(depth.Find("value")->number, -7.0);
  const JsonValue& pages = metrics->array[1];
  EXPECT_EQ(pages.Find("kind")->str, "counter");
  EXPECT_EQ(pages.Find("value")->number, 42.0);
}

TEST_F(MetricsRegistryTest, ToJsonEscapesLabelValues) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Quote, backslash, newline and a raw control byte — every class the
  // shared escaper must handle for the output to stay parseable.
  const std::string labels = std::string("path=a\"b\\c\nd\x01e");
  registry.GetCounter("escape.test", labels).Add(1);
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root))
      << registry.ToJson();
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 1u);
  // Round-trips exactly: what went in as a label string comes back out.
  EXPECT_EQ(metrics->array[0].Find("labels")->str, labels);
}

TEST_F(MetricsRegistryTest, InvalidNamesYieldInertHandles) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_FALSE(registry.GetCounter("9starts.with.digit").bound());
  EXPECT_FALSE(registry.GetCounter("has space").bound());
  EXPECT_FALSE(registry.GetCounter("").bound());
  EXPECT_FALSE(registry.GetGauge("newline\nname").bound());
  EXPECT_FALSE(registry.GetHistogram("semi;colon").bound());
  // Rejected names never reach the registry.
  EXPECT_TRUE(registry.Snapshot().empty());
  // The full legal alphabet is accepted.
  EXPECT_TRUE(registry.GetCounter("_ok.name:with_ALL09.classes").bound());
}

// ---- Registry histograms ----

TEST_F(MetricsRegistryTest, HistogramObservationsLandInPowerOfTwoBuckets) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram h = registry.GetHistogram("test.latency", "side=l");
  h.Observe(0);   // bucket 0 (v <= 0)
  h.Observe(1);   // bucket 1 ([1, 1])
  h.Observe(2);   // bucket 2 ([2, 3])
  h.Observe(3);   // bucket 2
  h.Observe(100);  // bucket 7 ([64, 127])
  EXPECT_EQ(h.Count(), 5);
  EXPECT_EQ(h.Sum(), 106);
  const std::vector<obs::MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const obs::MetricSample& s = snapshot[0];
  EXPECT_EQ(s.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(s.value, 5);  // histogram sample value is the count
  EXPECT_EQ(s.sum, 106);
  // Buckets are trimmed after the last nonzero (bucket 7 here).
  ASSERT_EQ(s.buckets.size(), 8u);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
  EXPECT_EQ(s.buckets[7], 1);
}

TEST_F(MetricsRegistryTest, HistogramHandlesShareOneCellAndDefaultIsInert) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram a = registry.GetHistogram("test.latency");
  obs::Histogram b = registry.GetHistogram("test.latency");
  a.Observe(1);
  b.Observe(2);
  EXPECT_EQ(a.Count(), 2);
  obs::Histogram inert;
  EXPECT_FALSE(inert.bound());
  inert.Observe(123);  // must not crash
  EXPECT_EQ(inert.Count(), 0);
}

TEST_F(MetricsRegistryTest, ToJsonCarriesHistogramFields) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram h =
      registry.GetHistogram("test.latency", "", /*unit_scale=*/1e-6);
  h.Observe(3);
  h.Observe(4);
  JsonValue root;
  ASSERT_TRUE(JsonParser(registry.ToJson()).Parse(&root))
      << registry.ToJson();
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_EQ(metrics->array.size(), 1u);
  const JsonValue& m = metrics->array[0];
  EXPECT_EQ(m.Find("kind")->str, "histogram");
  EXPECT_EQ(m.Find("count")->number, 2.0);
  EXPECT_EQ(m.Find("sum")->number, 7.0);
  EXPECT_DOUBLE_EQ(m.Find("unit_scale")->number, 1e-6);
  const JsonValue* buckets = m.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  // 3 -> bucket 2, 4 -> bucket 3; trimmed to 4 entries.
  ASSERT_EQ(buckets->array.size(), 4u);
  EXPECT_EQ(buckets->array[2].number, 1.0);
  EXPECT_EQ(buckets->array[3].number, 1.0);
}

// ---- Prometheus text exposition ----

TEST(PromtextTest, GoldenExposition) {
  std::vector<obs::MetricSample> samples;
  obs::MetricSample counter;
  counter.name = "jobs.done";
  counter.labels = "q=a";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 3;
  samples.push_back(counter);
  obs::MetricSample gauge;
  gauge.name = "depth";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = -2;
  samples.push_back(gauge);
  obs::MetricSample hist;
  hist.name = "lat";
  hist.labels = "s=0";
  hist.kind = obs::MetricKind::kHistogram;
  hist.value = 3;  // count
  hist.sum = 7;
  hist.unit_scale = 1.0;
  hist.buckets = {0, 2, 1};
  samples.push_back(hist);
  // Snapshot() order: (name, labels). WritePrometheusText re-sorts by
  // sanitized name, so feed it sorted input like the real caller does.
  std::sort(samples.begin(), samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  EXPECT_EQ(obs::WritePrometheusText(samples),
            "# TYPE depth gauge\n"
            "depth -2\n"
            "# TYPE jobs_done counter\n"
            "jobs_done{q=\"a\"} 3\n"
            "# TYPE lat histogram\n"
            "lat_bucket{s=\"0\",le=\"0\"} 0\n"
            "lat_bucket{s=\"0\",le=\"1\"} 2\n"
            "lat_bucket{s=\"0\",le=\"3\"} 3\n"
            "lat_bucket{s=\"0\",le=\"+Inf\"} 3\n"
            "lat_sum{s=\"0\"} 7\n"
            "lat_count{s=\"0\"} 3\n");
}

TEST(PromtextTest, EscapesLabelValuesAndScalesUnits) {
  std::vector<obs::MetricSample> samples;
  obs::MetricSample counter;
  counter.name = "files.read";
  counter.labels = "path=a\"b\\c\nd";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 1;
  samples.push_back(counter);
  obs::MetricSample hist;
  hist.name = "io.seconds";
  hist.kind = obs::MetricKind::kHistogram;
  hist.value = 4;
  hist.sum = 3'000'000;  // raw microseconds
  hist.unit_scale = 1e-6;
  hist.buckets = {0, 4};
  samples.push_back(hist);
  const std::string text = obs::WritePrometheusText(samples);
  // Exposition escapes: backslash, quote and newline in label values.
  EXPECT_NE(text.find("files_read{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
  // Microsecond observations exported under second-valued bounds.
  EXPECT_NE(text.find("io_seconds_bucket{le=\"1e-06\"} 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("io_seconds_sum 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("io_seconds_count 4\n"), std::string::npos) << text;
}

TEST_F(MetricsRegistryTest, GlobalPrometheusTextEndToEnd) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetHistogram("pjoin.test.latency.seconds", "shard=0", 1e-6)
      .Observe(5);
  registry.GetCounter("pjoin.test.results", "shard=0").Add(2);
  const std::string text = obs::GlobalPrometheusText();
  EXPECT_NE(text.find("# TYPE pjoin_test_latency_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pjoin_test_latency_seconds_count{shard=\"0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pjoin_test_results{shard=\"0\"} 2"),
            std::string::npos)
      << text;
}

// ---- /statusz rendering ----

TEST(IntrospectionTest, StatusSectionsAppearWhileRegistered) {
  {
    obs::ScopedStatusSection section("test section",
                                     [] { return "k=v\n"; });
    const std::string statusz = obs::RenderStatusz(/*uptime_us=*/1'500'000);
    EXPECT_NE(statusz.find("uptime_seconds: 1.5"), std::string::npos)
        << statusz;
    EXPECT_NE(statusz.find("== test section =="), std::string::npos);
    EXPECT_NE(statusz.find("k=v"), std::string::npos);
    EXPECT_NE(statusz.find("== build =="), std::string::npos);
  }
  // RAII unregistration: a finished pipeline stops appearing.
  EXPECT_EQ(obs::RenderStatusSections().find("test section"),
            std::string::npos);
}

// ---- TraceRing ----

TEST(TraceRingTest, DrainReturnsEventsOldestFirst) {
  obs::TraceRing ring(/*tid=*/5, /*capacity=*/8);
  for (int64_t i = 0; i < 4; ++i) {
    ring.Emit("cat", "name", obs::TracePhase::kCounter, /*ts=*/i * 10, i);
  }
  std::vector<obs::TraceEvent> events;
  EXPECT_EQ(ring.Drain(&events), 0);  // nothing dropped
  ASSERT_EQ(events.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].value, i);
    EXPECT_EQ(events[static_cast<size_t>(i)].tid, 5);
  }
}

TEST(TraceRingTest, OverflowKeepsNewestEventsAndCountsDropped) {
  constexpr int64_t kCapacity = 8;
  constexpr int64_t kEmitted = 20;
  obs::TraceRing ring(/*tid=*/0, kCapacity);
  for (int64_t i = 0; i < kEmitted; ++i) {
    ring.Emit("cat", "name", obs::TracePhase::kCounter, /*ts=*/i, i);
  }
  std::vector<obs::TraceEvent> events;
  const int64_t dropped = ring.Drain(&events);
  EXPECT_EQ(dropped, kEmitted - kCapacity);
  ASSERT_EQ(events.size(), static_cast<size_t>(kCapacity));
  // The survivors are exactly the newest kCapacity events, oldest first.
  for (int64_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].value,
              kEmitted - kCapacity + i);
  }
}

// A Snapshot never consumes: repeated snapshots see the same resident
// events, while Drain advances the consumed watermark (the /tracez vs.
// Chrome-export split).
TEST(TraceRingTest, SnapshotIsNonDestructiveDrainConsumes) {
  obs::TraceRing ring(/*tid=*/0, /*capacity=*/8);
  for (int64_t i = 0; i < 4; ++i) {
    ring.Emit("cat", "name", obs::TracePhase::kCounter, /*ts=*/i, i);
  }
  std::vector<obs::TraceEvent> snap1, snap2, drained, rest;
  EXPECT_EQ(ring.Snapshot(&snap1), 0);
  EXPECT_EQ(ring.Snapshot(&snap2), 0);
  EXPECT_EQ(snap1.size(), 4u);
  EXPECT_EQ(snap2.size(), 4u);  // the first snapshot stole nothing
  EXPECT_EQ(ring.Drain(&drained), 0);
  EXPECT_EQ(drained.size(), 4u);
  // A second drain only returns what arrived since the first.
  ring.Emit("cat", "name", obs::TracePhase::kCounter, /*ts=*/10, 99);
  EXPECT_EQ(ring.Drain(&rest), 0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].value, 99);
  // Snapshot still sees everything resident, drained or not.
  std::vector<obs::TraceEvent> snap3;
  EXPECT_EQ(ring.Snapshot(&snap3), 0);
  EXPECT_EQ(snap3.size(), 5u);
}

TEST(TraceRingTest, FlowIdSurvivesTheRing) {
  obs::TraceRing ring(/*tid=*/0, /*capacity=*/8);
  ring.Emit("flow", "tuple_path", obs::TracePhase::kFlowStart, /*ts=*/1,
            /*value=*/0, /*flow_id=*/0xdeadbeefULL);
  std::vector<obs::TraceEvent> events;
  ring.Snapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, obs::TracePhase::kFlowStart);
  EXPECT_EQ(events[0].flow_id, 0xdeadbeefULL);
}

// ---- Tracer ----

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::Global().ResetForTest(); }
  void TearDown() override {
    obs::Tracer::Global().Stop();
    obs::Tracer::Global().ResetForTest();
  }
};

#if PJOIN_TRACING

TEST_F(TracerTest, EventsWhileStoppedAreDropped) {
  TRACE_INSTANT("test", "before_start");
  {
    TRACE_SPAN("test", "span_before_start");
  }
  EXPECT_TRUE(obs::Tracer::Global().Drain().empty());
}

TEST_F(TracerTest, SpansCarryNonNegativeDuration) {
  obs::Tracer::Global().Start();
  {
    TRACE_SPAN("test", "outer");
    TRACE_INSTANT("test", "inside");
  }
  obs::Tracer::Global().Stop();
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  bool saw_span = false;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == obs::TracePhase::kComplete) {
      saw_span = true;
      EXPECT_STREQ(e.name, "outer");
      EXPECT_GE(e.value, 0);  // duration
    }
  }
  EXPECT_TRUE(saw_span);
}

// Naming a thread costs no ring: the name shows up in the export only
// once the thread records an event.
TEST_F(TracerTest, ThreadNamesAreExported) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetCurrentThreadName("main-test");
  EXPECT_TRUE(tracer.ThreadNames().empty());
  tracer.Start();
  TRACE_INSTANT("test", "named");
  tracer.Stop();
  const auto names = tracer.ThreadNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].second, "main-test");
}

// Writers emit through the macros while the main thread drains concurrently;
// run under TSan in CI. Drained events must never be torn (a null name or
// category would mean a half-written slot escaped the seq check).
TEST_F(TracerTest, ConcurrentEmitAndDrainIsSafe) {
  obs::Tracer::Global().Start();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        TRACE_COUNTER("test", "spin", i);
        if (i % 64 == 0) {
          TRACE_SPAN("test", "chunk");
        }
      }
    });
  }
  // Drain consumes: each call returns only what arrived since the last
  // one, so the assertions cover the union of every drain (a slow mid-run
  // drain can legitimately leave nothing for the final one).
  size_t total = 0;
  auto check_drain = [&total](const std::vector<obs::TraceEvent>& events) {
    total += events.size();
    for (const obs::TraceEvent& e : events) {
      ASSERT_NE(e.name, nullptr);
      ASSERT_NE(e.category, nullptr);
      ASSERT_GE(static_cast<int32_t>(e.phase), 0);
      ASSERT_LE(static_cast<int32_t>(e.phase), 2);
    }
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].ts, events[i].ts);  // drain sorts by timestamp
    }
  };
  for (int i = 0; i < 50; ++i) {
    check_drain(obs::Tracer::Global().Drain());
  }
  for (std::thread& w : writers) w.join();
  obs::Tracer::Global().Stop();
  check_drain(obs::Tracer::Global().Drain());
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, static_cast<size_t>(kThreads) *
                       (kEventsPerThread + kEventsPerThread / 64 + 1));
}

// ---- Chrome trace export ----

TEST_F(TracerTest, ChromeTraceExportIsValidAndComplete) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();
  tracer.SetCurrentThreadName("escape \"this\" \\ name");
  {
    TRACE_SPAN("cat_span", "a_span");
  }
  TRACE_INSTANT("cat_inst", "an_instant");
  TRACE_COUNTER("cat_ctr", "a_counter", 17);
  tracer.Stop();

  std::ostringstream os;
  obs::WriteChromeTrace(os, tracer.Drain(), tracer.ThreadNames());
  const std::string json = os.str();

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const JsonValue* trace_events = root.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->type, JsonValue::Type::kArray);
  // 1 thread-name metadata record + 3 events.
  ASSERT_EQ(trace_events->array.size(), 4u);

  bool saw_meta = false, saw_span = false, saw_instant = false,
       saw_counter = false;
  for (const JsonValue& e : trace_events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    if (ph->str == "M") {
      saw_meta = true;
      EXPECT_EQ(e.Find("args")->Find("name")->str, "escape \"this\" \\ name");
    } else if (ph->str == "X") {
      saw_span = true;
      EXPECT_EQ(e.Find("name")->str, "a_span");
      EXPECT_EQ(e.Find("cat")->str, "cat_span");
      ASSERT_NE(e.Find("dur"), nullptr);
      EXPECT_GE(e.Find("dur")->number, 0.0);
      ASSERT_NE(e.Find("ts"), nullptr);
    } else if (ph->str == "i") {
      saw_instant = true;
      EXPECT_EQ(e.Find("name")->str, "an_instant");
      EXPECT_EQ(e.Find("s")->str, "t");
    } else if (ph->str == "C") {
      saw_counter = true;
      EXPECT_EQ(e.Find("name")->str, "a_counter");
      EXPECT_EQ(e.Find("args")->Find("value")->number, 17.0);
    } else {
      FAIL() << "unexpected phase " << ph->str;
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

// A /tracez scrape (Snapshot) must not steal events from the Chrome export
// (Drain), and the export records when it ran and how much it took.
TEST_F(TracerTest, ScrapeDoesNotStealFromExportAndDrainRecordsMetadata) {
  obs::Tracer& tracer = obs::Tracer::Global();
  EXPECT_EQ(tracer.last_drain_us(), 0);  // "never"
  tracer.Start();
  TRACE_INSTANT("test", "one");
  TRACE_INSTANT("test", "two");
  TRACE_INSTANT("test", "three");
  tracer.Stop();

  // Two scrapes in a row see the same events.
  EXPECT_EQ(tracer.Snapshot().size(), 3u);
  EXPECT_EQ(tracer.Snapshot().size(), 3u);
  EXPECT_EQ(tracer.last_drain_us(), 0);  // scrapes are not drains

  // The export still gets everything, and stamps the metadata.
  EXPECT_EQ(tracer.Drain().size(), 3u);
  EXPECT_GT(tracer.last_drain_us(), 0);
  EXPECT_EQ(tracer.last_drain_count(), 3);

  // A second export does not re-emit; a scrape still sees the residents.
  EXPECT_TRUE(tracer.Drain().empty());
  EXPECT_EQ(tracer.last_drain_count(), 0);
  EXPECT_EQ(tracer.Snapshot().size(), 3u);
}

// Flow events render as Chrome flow arrows: "s"/"t"/"f" records sharing an
// id, with "bp":"e" on the end so Perfetto binds the arrow to the enclosing
// slice.
TEST_F(TracerTest, ChromeTraceExportRendersFlowArrows) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();
  TRACE_FLOW_START("flow", "tuple_path", 42);
  TRACE_FLOW_STEP("flow", "tuple_path", 42);
  TRACE_FLOW_END("flow", "tuple_path", 42);
  tracer.Stop();

  std::ostringstream os;
  obs::WriteChromeTrace(os, tracer.Drain(), tracer.ThreadNames());

  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root)) << os.str();
  const JsonValue* trace_events = root.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->array.size(), 3u);

  bool saw_start = false, saw_step = false, saw_end = false;
  for (const JsonValue& e : trace_events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(e.Find("name")->str, "tuple_path");
    EXPECT_EQ(e.Find("cat")->str, "flow");
    ASSERT_NE(e.Find("id"), nullptr);
    EXPECT_EQ(e.Find("id")->number, 42.0);
    if (ph->str == "s") {
      saw_start = true;
    } else if (ph->str == "t") {
      saw_step = true;
    } else if (ph->str == "f") {
      saw_end = true;
      ASSERT_NE(e.Find("bp"), nullptr);
      EXPECT_EQ(e.Find("bp")->str, "e");
    } else {
      FAIL() << "unexpected phase " << ph->str;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_end);
}

#endif  // PJOIN_TRACING

TEST_F(TracerTest, EmptyTraceIsStillValidJson) {
  std::ostringstream os;
  obs::WriteChromeTrace(os, {}, {});
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root));
  const JsonValue* trace_events = root.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_TRUE(trace_events->array.empty());
  EXPECT_EQ(root.Find("displayTimeUnit")->str, "ms");
}

}  // namespace
}  // namespace pjoin

#include "obs/health.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "obs/text_escape.h"

namespace pjoin {
namespace obs {

namespace {

std::string FormatSeconds(TimeMicros us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(us) / 1e6);
  return buf;
}

/// The value of (name, labels) in a registry snapshot; 0 when the metric was
/// never registered.
int64_t ValueOf(const std::vector<MetricSample>& samples,
                std::string_view name, std::string_view labels) {
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.labels == labels) return sample.value;
  }
  return 0;
}

/// The shard of a parallel pipeline's per-shard label set
/// ("pipeline=parallel,shard=N"), or -1 for any other label set.
int ShardOf(std::string_view labels) {
  constexpr std::string_view kPrefix = "pipeline=parallel,shard=";
  if (labels.substr(0, kPrefix.size()) != kPrefix) return -1;
  int shard = -1;
  const char* end = labels.data() + labels.size();
  const auto [ptr, ec] =
      std::from_chars(labels.data() + kPrefix.size(), end, shard);
  return ec == std::errc() && ptr == end ? shard : -1;
}

/// One root-cause chain for a stalled shard, from the same snapshot: "shard
/// 2 frontier stalled 4.2s behind router; ring edge=shard_2 occupancy 31;
/// ring edge=out_2 occupancy 64; 3 punct release rounds pending at merger".
std::string StallCauseChain(const std::vector<MetricSample>& samples,
                            const ShardFrontier& frontier) {
  const std::string shard = std::to_string(frontier.shard);
  std::string chain = "shard " + shard + " frontier stalled " +
                      FormatSeconds(frontier.lag_us) + "s behind router";
  for (const std::string_view edge : {"edge=shard_", "edge=out_"}) {
    const std::string labels = std::string(edge) + shard;
    chain.append("; ring ");
    chain.append(labels);
    chain.append(" occupancy ");
    chain.append(std::to_string(
        ValueOf(samples, "pjoin_ring_occupancy", labels)));
  }
  const int64_t pending =
      ValueOf(samples, "pjoin_punct_pending_rounds", "pipeline=parallel");
  if (pending > 0) {
    chain.append("; ");
    chain.append(std::to_string(pending));
    chain.append(" punct release rounds pending at merger");
  }
  return chain;
}

}  // namespace

const char* HealthStatusName(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk:
      return "ok";
    case HealthStatus::kDegraded:
      return "degraded";
    case HealthStatus::kStalled:
      return "stalled";
  }
  return "?";
}

std::string HealthReport::ToJson() const {
  std::string out = "{\"status\": ";
  out.append(QuoteEscaped(HealthStatusName(status)));
  out.append(", \"now_us\": ");
  out.append(std::to_string(now_us));
  out.append(", \"stalled_frontiers\": ");
  out.append(std::to_string(stalled_frontiers));
  out.append(", \"degraded_signals\": ");
  out.append(std::to_string(degraded_signals));
  out.append(", \"unfired_purges\": ");
  out.append(std::to_string(unfired_purges));
  out.append(", \"causes\": [");
  for (size_t i = 0; i < causes.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(QuoteEscaped(causes[i]));
  }
  out.append("], \"frontiers\": [");
  for (size_t i = 0; i < frontiers.size(); ++i) {
    const ShardFrontier& frontier = frontiers[i];
    if (i > 0) out.append(", ");
    out.append("{\"shard\": ");
    out.append(std::to_string(frontier.shard));
    out.append(", \"dispatch_us\": ");
    out.append(std::to_string(frontier.dispatch_us));
    out.append(", \"lag_us\": ");
    out.append(std::to_string(frontier.lag_us));
    out.append("}");
  }
  out.append("]}");
  return out;
}

HealthReport EvaluateHealth(const std::vector<MetricSample>& snapshot,
                            TimeMicros now_us) {
  HealthReport report;
  report.now_us = now_us;
  for (const MetricSample& sample : snapshot) {
    if (sample.name == "pjoin_puncts_since_purge") {
      report.unfired_purges += sample.value;
      continue;
    }
    if (sample.name != "pjoin_shard_dispatch_us") continue;
    const int shard = ShardOf(sample.labels);
    if (shard < 0) continue;
    ShardFrontier frontier;
    frontier.shard = shard;
    frontier.dispatch_us = sample.value;
    if (sample.value > 0 && now_us > sample.value) {
      frontier.lag_us = now_us - sample.value;
    }
    report.frontiers.push_back(frontier);
  }
  std::sort(report.frontiers.begin(), report.frontiers.end(),
            [](const ShardFrontier& a, const ShardFrontier& b) {
              return a.shard < b.shard;
            });
  for (const ShardFrontier& frontier : report.frontiers) {
    if (frontier.lag_us >= kStallThresholdUs) {
      ++report.stalled_frontiers;
      report.causes.push_back(StallCauseChain(snapshot, frontier));
    } else if (frontier.lag_us >= kDegradedThresholdUs) {
      ++report.degraded_signals;
      report.causes.push_back("shard " + std::to_string(frontier.shard) +
                              " frontier lagging " +
                              FormatSeconds(frontier.lag_us) +
                              "s behind router");
    }
  }
  if (ValueOf(snapshot, "pjoin_spill_degraded", "") > 0) {
    ++report.degraded_signals;
    report.causes.push_back(
        "spill storage degraded (global-threshold spill victims or fallback "
        "store active)");
  }
  report.status = report.stalled_frontiers > 0 ? HealthStatus::kStalled
                  : report.degraded_signals > 0 ? HealthStatus::kDegraded
                                                : HealthStatus::kOk;
  return report;
}

}  // namespace obs
}  // namespace pjoin

#include "obs/promtext.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "obs/text_escape.h"

namespace pjoin {
namespace obs {

namespace {

// Prometheus metric names admit [a-zA-Z0-9_:]; registry names additionally
// allow dots (the repo's native "spill.pages_written" style), which
// transliterate to underscores.
std::string SanitizeName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// Renders the repo's "k=v,k2=v2" label string as {k="v",k2="v2"}. `extra`
// (already rendered as `k="v"`) is appended last — used for histogram `le`.
void AppendLabels(std::string* out, std::string_view labels,
                  std::string_view extra = "") {
  if (labels.empty() && extra.empty()) return;
  out->push_back('{');
  bool first = true;
  size_t pos = 0;
  while (pos < labels.size()) {
    size_t comma = labels.find(',', pos);
    if (comma == std::string_view::npos) comma = labels.size();
    const std::string_view pair = labels.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
    if (!first) out->push_back(',');
    first = false;
    out->append(key);
    out->append("=\"");
    AppendEscapedStringBody(out, value);
    out->push_back('"');
  }
  if (!extra.empty()) {
    if (!first) out->push_back(',');
    out->append(extra);
  }
  out->push_back('}');
}

const char* TypeName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void AppendHistogram(std::string* out, const std::string& name,
                     const MetricSample& s) {
  int64_t cumulative = 0;
  for (size_t b = 0; b < s.buckets.size(); ++b) {
    cumulative += s.buckets[b];
    // Bucket 0 holds v <= 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
    // ldexp keeps bucket 63 (the BucketFor overflow bucket) from shifting
    // past the int64 range.
    const double le =
        b == 0 ? 0.0
               : (std::ldexp(1.0, static_cast<int>(b)) - 1.0) * s.unit_scale;
    std::string le_label = "le=\"";
    AppendDouble(&le_label, le);
    le_label.push_back('"');
    out->append(name);
    out->append("_bucket");
    AppendLabels(out, s.labels, le_label);
    out->push_back(' ');
    out->append(std::to_string(cumulative));
    out->push_back('\n');
  }
  out->append(name);
  out->append("_bucket");
  AppendLabels(out, s.labels, "le=\"+Inf\"");
  out->push_back(' ');
  out->append(std::to_string(s.value));
  out->push_back('\n');

  out->append(name);
  out->append("_sum");
  AppendLabels(out, s.labels);
  out->push_back(' ');
  AppendDouble(out, static_cast<double>(s.sum) * s.unit_scale);
  out->push_back('\n');

  out->append(name);
  out->append("_count");
  AppendLabels(out, s.labels);
  out->push_back(' ');
  out->append(std::to_string(s.value));
  out->push_back('\n');
}

}  // namespace

std::string WritePrometheusText(const std::vector<MetricSample>& samples) {
  // Re-sort by sanitized name so each output name forms one contiguous
  // group under a single # TYPE header even if sanitization reorders
  // ("a.b" vs "a_a") or merges names.
  std::vector<std::pair<std::string, const MetricSample*>> rows;
  rows.reserve(samples.size());
  for (const MetricSample& s : samples) {
    rows.emplace_back(SanitizeName(s.name), &s);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second->labels < b.second->labels;
                   });

  std::string out;
  const std::string* open_name = nullptr;
  MetricKind open_kind = MetricKind::kCounter;
  for (const auto& [name, s] : rows) {
    if (open_name == nullptr || *open_name != name) {
      out.append("# TYPE ");
      out.append(name);
      out.push_back(' ');
      out.append(TypeName(s->kind));
      out.push_back('\n');
      open_name = &name;
      open_kind = s->kind;
    } else if (s->kind != open_kind) {
      // Two registry names merged by sanitization with conflicting kinds;
      // emitting both under one TYPE would be invalid exposition. Drop the
      // later kind — the registry itself forbids same-name conflicts, so
      // this only triggers for pathological dot/underscore collisions.
      continue;
    }
    if (s->kind == MetricKind::kHistogram) {
      AppendHistogram(&out, name, *s);
    } else {
      out.append(name);
      AppendLabels(&out, s->labels);
      out.push_back(' ');
      out.append(std::to_string(s->value));
      out.push_back('\n');
    }
  }
  return out;
}

std::string GlobalPrometheusText() {
  return WritePrometheusText(MetricsRegistry::Global().Snapshot());
}

}  // namespace obs
}  // namespace pjoin

// Sensor-network monitoring (one of the stream applications motivating the
// paper): correlate temperature and humidity readings of the same sensor
// that occur within a two-second window, using the sliding-window PJoin
// extension (§6).
//
// Sensors are decommissioned over time; the fleet controller embeds a
// punctuation into both streams when that happens. The windowed join then
// (a) purges the sensor's readings *before* their window expires and
// (b) propagates the punctuation early, so downstream per-sensor
// aggregation can finalize immediately.

#include <cstdio>

#include "common/rng.h"
#include "stream/arrival_merge.h"
#include "window/window_pjoin.h"

using namespace pjoin;

namespace {

struct SensorStreams {
  SchemaPtr temp_schema;
  SchemaPtr hum_schema;
  std::vector<StreamElement> temp;
  std::vector<StreamElement> hum;
};

SensorStreams GenerateFleet(int num_sensors, int readings_per_sensor,
                            uint64_t seed) {
  SensorStreams out;
  out.temp_schema = Schema::Make(
      {{"sensor_id", ValueType::kInt64}, {"celsius", ValueType::kFloat64}});
  out.hum_schema = Schema::Make(
      {{"sensor_id", ValueType::kInt64}, {"rel_hum", ValueType::kFloat64}});

  Rng rng(seed);
  TimeMicros now = 0;
  int64_t seq_t = 0;
  int64_t seq_h = 0;
  // Sensors report round-robin; sensor s is decommissioned after its quota,
  // which staggers the punctuations through the run.
  std::vector<int> remaining(static_cast<size_t>(num_sensors),
                             readings_per_sensor);
  int live = num_sensors;
  while (live > 0) {
    for (int s = 0; s < num_sensors; ++s) {
      auto& left = remaining[static_cast<size_t>(s)];
      if (left == 0) continue;
      now += 1000 + static_cast<TimeMicros>(rng.NextBounded(2000));
      out.temp.push_back(StreamElement::MakeTuple(
          Tuple(out.temp_schema,
                {Value(int64_t{s}), Value(15.0 + 10.0 * rng.NextDouble())}),
          now, seq_t++));
      if (rng.NextBool(0.8)) {  // humidity reports slightly less often
        out.hum.push_back(StreamElement::MakeTuple(
            Tuple(out.hum_schema,
                  {Value(int64_t{s}), Value(100.0 * rng.NextDouble())}),
            now + 200, seq_h++));
      }
      if (--left == 0) {
        // Decommissioned: both streams promise no more data for sensor s.
        Punctuation p = Punctuation::ForAttribute(
            2, 0, Pattern::Constant(Value(int64_t{s})));
        out.temp.push_back(StreamElement::MakePunctuation(p, now, seq_t++));
        out.hum.push_back(StreamElement::MakePunctuation(p, now, seq_h++));
        --live;
      }
    }
  }
  out.temp.push_back(StreamElement::MakeEndOfStream(now, seq_t++));
  out.hum.push_back(StreamElement::MakeEndOfStream(now, seq_h++));
  return out;
}

}  // namespace

int main() {
  SensorStreams fleet = GenerateFleet(/*num_sensors=*/25,
                                      /*readings_per_sensor=*/400,
                                      /*seed=*/7);

  WindowJoinOptions options;
  options.window_micros = 2 * kMicrosPerSecond;
  options.exploit_punctuations = true;
  WindowPJoin join(fleet.temp_schema, fleet.hum_schema, options);

  int64_t correlated = 0;
  join.set_result_callback([&correlated](const Tuple&) { ++correlated; });
  int64_t sensors_finalized = 0;
  join.set_punct_callback(
      [&sensors_finalized](const Punctuation&) { ++sensors_finalized; });

  // Drive both streams in global arrival order.
  for (ArrivalMerge merge(fleet.temp, fleet.hum); !merge.done();) {
    const auto [side, e] = merge.Next();
    Status st = join.OnElement(side, *e);
    if (!st.ok()) {
      std::fprintf(stderr, "join failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf("correlated readings:        %lld\n",
              static_cast<long long>(correlated));
  std::printf("sensor-done puncts out:     %lld\n",
              static_cast<long long>(sensors_finalized));
  std::printf("state at end:               %lld tuples\n",
              static_cast<long long>(join.state_tuples()));
  std::printf("expired by window:          %lld\n",
              static_cast<long long>(
                  join.counters().Get("window_expired")));
  std::printf("purged early by puncts:     %lld\n",
              static_cast<long long>(join.counters().Get("punct_purged")));
  std::printf("dropped on the fly:         %lld\n",
              static_cast<long long>(join.counters().Get("otf_drops")));
  return 0;
}

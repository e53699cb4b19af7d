// pjoin_cli: join two punctuated stream files from the command line.
//
// Usage:
//   pjoin_cli --left LEFT.stream --left-schema "key:int64,qty:int64"
//             --right RIGHT.stream --right-schema "key:int64,w:float64"
//             [--left-key 0] [--right-key 0]
//             [--algo pjoin|xjoin|shj]
//             [--purge-threshold N] [--memory-threshold N]
//             [--propagate-count N]
//             [--out OUT.stream] [--stats]
//             [--serve-port PORT] [--serve-linger-ms MS]
//
// --serve-port starts the live introspection HTTP server (0 = ephemeral;
// the bound port is printed to stderr) exposing /metrics, /statusz and
// /tracez while the join runs; --serve-linger-ms keeps the process (and
// the endpoints) alive that long after the join finishes so a scraper can
// collect the final state, or until GET /quitquitquit.
//
// Stream file format (see src/io/text_format.h):
//   t <arrival_micros> <v1>,<v2>,...
//   p <arrival_micros> <pattern1>,<pattern2>,...
//
// Example:
//   $ cat left.stream
//   t 1000 1,10
//   t 2000 2,20
//   p 3000 1,*
//   $ pjoin_cli --left left.stream --left-schema key:int64,qty:int64
//               --right right.stream --right-schema key:int64,w:float64

#include <charconv>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "io/text_format.h"
#include "obs/introspection.h"
#include "join/pjoin.h"
#include "join/shj.h"
#include "join/xjoin.h"
#include "ops/pipeline.h"

using namespace pjoin;

namespace {

struct Args {
  std::map<std::string, std::string> named;
  bool Has(const std::string& key) const { return named.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt = "") const {
    auto it = named.find(key);
    return it == named.end() ? dflt : it->second;
  }
};

/// Parses the whole of `text` as a decimal integer ("5x" and "" fail).
bool ParseInt(const std::string& text, int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "pjoin_cli: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Fail("unexpected argument " + key);
    key = key.substr(2);
    if (key == "stats") {
      args.named[key] = "1";
    } else if (i + 1 < argc) {
      args.named[key] = argv[++i];
    } else {
      return Fail("missing value for --" + key);
    }
  }
  for (const char* required :
       {"left", "right", "left-schema", "right-schema"}) {
    if (!args.Has(required)) {
      return Fail(std::string("--") + required +
                  " is required (see header of tools/pjoin_cli.cc)");
    }
  }

  // Integer flags and their defaults.
  std::map<std::string, int64_t> ints = {
      {"left-key", 0},         {"right-key", 0},
      {"purge-threshold", 1},  {"memory-threshold", 0},
      {"propagate-count", 0},  {"serve-port", 0},
      {"serve-linger-ms", 0}};
  for (auto& [key, value] : ints) {
    if (args.Has(key) && !ParseInt(args.Get(key), &value)) {
      return Fail("--" + key + " takes an integer, not '" + args.Get(key) +
                  "'");
    }
  }

  auto left_schema = ParseSchemaSpec(args.Get("left-schema"));
  if (!left_schema.ok()) return Fail(left_schema.status().ToString());
  auto right_schema = ParseSchemaSpec(args.Get("right-schema"));
  if (!right_schema.ok()) return Fail(right_schema.status().ToString());
  for (const auto& [flag, schema] :
       {std::pair{"left-key", *left_schema}, {"right-key", *right_schema}}) {
    const int64_t key = ints.at(flag);
    if (key < 0 || static_cast<size_t>(key) >= schema->num_fields()) {
      return Fail(std::string("--") + flag + " " + std::to_string(key) +
                  " is outside its schema's " +
                  std::to_string(schema->num_fields()) + " fields");
    }
  }

  auto left = ReadStreamFile(args.Get("left"), *left_schema);
  if (!left.ok()) return Fail(left.status().ToString());
  auto right = ReadStreamFile(args.Get("right"), *right_schema);
  if (!right.ok()) return Fail(right.status().ToString());

  JoinOptions options;
  options.left_key = static_cast<size_t>(ints.at("left-key"));
  options.right_key = static_cast<size_t>(ints.at("right-key"));
  options.runtime.purge_threshold = ints.at("purge-threshold");
  if (args.Has("memory-threshold")) {
    options.runtime.memory_threshold_tuples = ints.at("memory-threshold");
  }
  options.runtime.propagate_count_threshold = ints.at("propagate-count");

  const std::string algo = args.Get("algo", "pjoin");
  std::unique_ptr<JoinOperator> join;
  if (algo == "pjoin") {
    join = std::make_unique<PJoin>(*left_schema, *right_schema, options);
  } else if (algo == "xjoin") {
    join = std::make_unique<XJoin>(*left_schema, *right_schema, options);
  } else if (algo == "shj") {
    join = std::make_unique<SymmetricHashJoin>(*left_schema, *right_schema,
                                               options);
  } else {
    return Fail("unknown --algo '" + algo + "' (pjoin|xjoin|shj)");
  }

  // Collect output as stream elements so it can be written back out.
  std::vector<StreamElement> output;
  int64_t seq = 0;
  join->set_result_callback([&](const Tuple& t) {
    output.push_back(StreamElement::MakeTuple(t, join->last_arrival(), seq++));
  });
  join->set_punct_callback([&](const Punctuation& p) {
    output.push_back(
        StreamElement::MakePunctuation(p, join->last_arrival(), seq++));
  });

  std::unique_ptr<obs::IntrospectionServer> server;
  if (args.Has("serve-port")) {
    const int64_t port = ints.at("serve-port");
    if (port < 0 || port > 65535) {
      return Fail("--serve-port " + std::to_string(port) +
                  " is not a TCP port");
    }
    server = std::make_unique<obs::IntrospectionServer>();
    const Status started = server->Start(static_cast<int>(port));
    if (!started.ok()) return Fail(started.ToString());
    std::fprintf(stderr, "serving introspection on http://127.0.0.1:%d\n",
                 server->port());
  }

  PipelineOptions popts;
  popts.stall_gap_micros = 8000;
  JoinPipeline pipeline(join.get(), nullptr, popts);
  const Status status = pipeline.Run(*left, *right);
  if (!status.ok()) return Fail(status.ToString());

  if (args.Has("out")) {
    Status w = WriteStreamFile(args.Get("out"), output);
    if (!w.ok()) return Fail(w.ToString());
  } else {
    std::fputs(FormatStreamText(output).c_str(), stdout);
  }

  if (args.Has("stats")) {
    std::fprintf(stderr, "algo:            %s\n", algo.c_str());
    std::fprintf(stderr, "output schema:   %s\n",
                 FormatSchemaSpec(*join->output_schema()).c_str());
    std::fprintf(stderr, "results:         %lld\n",
                 static_cast<long long>(join->results_emitted()));
    std::fprintf(stderr, "puncts out:      %lld\n",
                 static_cast<long long>(join->puncts_emitted()));
    std::fprintf(stderr, "state at end:    %lld tuples\n",
                 static_cast<long long>(join->total_state_tuples()));
    std::fprintf(stderr, "counters:        %s\n",
                 join->counters().ToString().c_str());
  }

  if (server != nullptr) {
    // Keep the endpoints up so a scraper can read the final metrics/state;
    // GET /quitquitquit ends the linger early.
    const int64_t linger_ms = ints.at("serve-linger-ms");
    const Stopwatch linger;
    while (linger.ElapsedMicros() < linger_ms * 1000 &&
           !server->quit_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    server->Stop();
  }
  return 0;
}

// Shared helpers for the test suite: a nested-loop reference join, result
// canonicalization, an output release-order checker, a gated join, and
// small construction shortcuts.

#ifndef PJOIN_TESTS_TEST_UTIL_H_
#define PJOIN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "join/join_base.h"
#include "join/pjoin.h"
#include "ops/pipeline.h"
#include "stream/element.h"
#include "tuple/tuple.h"

namespace pjoin {
namespace testing {

/// A canonical string for one joined pair, independent of emission order.
inline std::string PairKey(const Tuple& left, const Tuple& right) {
  return left.ToString() + "|" + right.ToString();
}

/// The exact multiset of results a correct equi-join must produce for the
/// given element streams, as canonical strings (sorted).
inline std::vector<std::string> ReferenceJoin(
    const std::vector<StreamElement>& left,
    const std::vector<StreamElement>& right, size_t left_key,
    size_t right_key) {
  std::vector<std::string> out;
  for (const StreamElement& l : left) {
    if (!l.is_tuple()) continue;
    for (const StreamElement& r : right) {
      if (!r.is_tuple()) continue;
      if (l.tuple().field(left_key) == r.tuple().field(right_key)) {
        out.push_back(PairKey(l.tuple(), r.tuple()));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `join` over the two element streams (global arrival order) and
/// returns the canonical sorted result multiset. Also asserts (via the
/// returned data) nothing about punctuations; collect those separately.
struct RunResult {
  std::vector<std::string> results;         // canonical, sorted
  std::vector<Punctuation> punctuations;    // in emission order
  int64_t stalls = 0;
};

inline RunResult RunJoin(JoinOperator* join,
                         const std::vector<StreamElement>& left,
                         const std::vector<StreamElement>& right,
                         TimeMicros stall_gap = 0) {
  RunResult out;
  const size_t left_width =
      join->output_schema()->num_fields();  // placeholder to silence unused
  (void)left_width;
  join->set_result_callback([&out](const Tuple& t) {
    // Split the concatenated tuple back into its halves via ToString of the
    // whole row; the canonical key is just the row text.
    out.results.push_back(t.ToString());
  });
  join->set_punct_callback(
      [&out](const Punctuation& p) { out.punctuations.push_back(p); });
  PipelineOptions popts;
  popts.stall_gap_micros = stall_gap;
  JoinPipeline pipeline(join, nullptr, popts);
  Status st = pipeline.Run(left, right);
  PJOIN_DCHECK(st.ok());
  out.stalls = pipeline.stalls_detected();
  std::sort(out.results.begin(), out.results.end());
  return out;
}

/// Reference multiset in the same canonicalization as RunJoin (full output
/// row text).
inline std::vector<std::string> ReferenceJoinRows(
    const std::vector<StreamElement>& left,
    const std::vector<StreamElement>& right, const SchemaPtr& out_schema,
    size_t left_key, size_t right_key) {
  std::vector<std::string> out;
  for (const StreamElement& l : left) {
    if (!l.is_tuple()) continue;
    for (const StreamElement& r : right) {
      if (!r.is_tuple()) continue;
      if (l.tuple().field(left_key) == r.tuple().field(right_key)) {
        out.push_back(Tuple::Concat(l.tuple(), r.tuple(), out_schema)
                          .ToString());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The §3.3 invariant on a join's output: a released punctuation never
/// precedes a result it covers. Feed it the output in emission order; a
/// result that an earlier-released punctuation matches is a violation.
class ReleaseOrderChecker {
 public:
  void OnResult(const Tuple& t) {
    for (const Punctuation& p : released_) {
      if (p.Matches(t)) {
        ++violations_;
        return;
      }
    }
  }
  void OnPunct(const Punctuation& p) { released_.push_back(p); }
  int64_t violations() const { return violations_; }

 private:
  std::vector<Punctuation> released_;
  int64_t violations_ = 0;
};

/// Open/closed gate a blocked join waits on.
class TestGate {
 public:
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  void WaitOpen() {
    MutexLock lock(mu_);
    while (!open_) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ GUARDED_BY(mu_) = false;
};

/// A PJoin whose tuple path blocks on `gate` after `free_tuples` tuples —
/// the deterministic stand-in for a shard wedged behind a blocked sink.
class GatedPJoin : public PJoin {
 public:
  GatedPJoin(SchemaPtr left, SchemaPtr right, JoinOptions options,
             TestGate* gate, int64_t free_tuples)
      : PJoin(std::move(left), std::move(right), std::move(options)),
        gate_(gate),
        free_tuples_(free_tuples) {}

 protected:
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override {
    if (++seen_ > free_tuples_) gate_->WaitOpen();
    return PJoin::OnTupleHashed(side, tuple, key_hash);
  }

 private:
  TestGate* gate_;
  const int64_t free_tuples_;
  int64_t seen_ = 0;
};

/// Builds a (key:int64, payload:int64) schema.
inline SchemaPtr KeyPayloadSchema(const std::string& payload_name = "p") {
  return Schema::Make(
      {{"key", ValueType::kInt64}, {payload_name, ValueType::kInt64}});
}

/// Builds one (key, payload) tuple.
inline Tuple KP(const SchemaPtr& schema, int64_t key, int64_t payload) {
  return Tuple(schema, {Value(key), Value(payload)});
}

/// Wraps tuples/punctuations into timestamped elements (1 ms apart).
class ElementsBuilder {
 public:
  explicit ElementsBuilder(TimeMicros step = 1000) : step_(step) {}

  ElementsBuilder& Tup(Tuple t) {
    Advance();
    elements_.push_back(StreamElement::MakeTuple(std::move(t), now_, seq_++));
    return *this;
  }
  ElementsBuilder& Punct(Punctuation p) {
    Advance();
    elements_.push_back(
        StreamElement::MakePunctuation(std::move(p), now_, seq_++));
    return *this;
  }
  std::vector<StreamElement> Finish() {
    Advance();
    elements_.push_back(StreamElement::MakeEndOfStream(now_, seq_++));
    return std::move(elements_);
  }

 private:
  void Advance() { now_ += step_; }

  TimeMicros step_;
  TimeMicros now_ = 0;
  int64_t seq_ = 0;
  std::vector<StreamElement> elements_;
};

/// Constant-key punctuation for a 2-field schema.
inline Punctuation KeyPunct(int64_t key, size_t num_fields = 2) {
  return Punctuation::ForAttribute(num_fields, 0,
                                   Pattern::Constant(Value(key)));
}

}  // namespace testing
}  // namespace pjoin

#endif  // PJOIN_TESTS_TEST_UTIL_H_

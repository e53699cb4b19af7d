// PerturbStream: inject punctuation-contract violations into an element
// stream.
//
// PerturbStream produces two consistent views of the same perturbed run:
//   - `faulty`: the stream a join under test actually consumes, and
//   - `sanitized`: the same stream with every *detectable* violation (late
//     tuples, covered duplicates, malformed punctuations) removed.
// A join with ViolationPolicy::kDrop must produce, on `faulty`, exactly the
// result a reference join produces on `sanitized` — the oracle used by the
// chaos fuzzer and the acceptance bench.
//
// Benign perturbations (tuple-tuple reordering, uncovered duplicates,
// producer stalls) stay in both views: they are workload anomalies, not
// contract violations, and a correct join must absorb them.

#ifndef PJOIN_FAULT_PERTURB_STREAM_H_
#define PJOIN_FAULT_PERTURB_STREAM_H_

#include <cstdint>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "stream/element.h"

namespace pjoin {

/// The outcome of perturbing one stream.
struct PerturbedStream {
  /// What the join under test consumes.
  std::vector<StreamElement> faulty;
  /// `faulty` minus the injected detectable violations; feed this to a
  /// trusted reference join to obtain the expected kDrop output.
  std::vector<StreamElement> sanitized;
  /// Detectable contract violations injected (late + covered duplicates +
  /// malformed punctuations) — what a validating join must flag.
  int64_t violations = 0;
  // Per-kind injection counts.
  int64_t late_tuples = 0;
  int64_t malformed_puncts = 0;
  int64_t duplicates = 0;          // covered duplicates only (violations)
  int64_t benign_duplicates = 0;   // uncovered duplicates (kept in sanitized)
  int64_t reorders = 0;
  int64_t stalls = 0;
};

/// Applies `spec` to `clean` (which must be time-ordered and end with
/// end-of-stream). `key_index` is the join attribute used to recognize
/// key-only punctuations and covered keys. Deterministic given the
/// injector's state. Arrival times of both views stay monotone.
PerturbedStream PerturbStream(const std::vector<StreamElement>& clean,
                              size_t key_index, const StreamFaultSpec& spec,
                              FaultInjector* injector);

}  // namespace pjoin

#endif  // PJOIN_FAULT_PERTURB_STREAM_H_

// FaultPlan: a declarative description of the faults to inject into one run.
//
// The plan is pure data — it says *what* can go wrong and how often; the
// seeded FaultInjector decides *when*, deterministically, so every chaos run
// is exactly reproducible from (plan, seed). Three fault families:
//
//  - I/O faults (IoFaultSpec), applied by FaultySpillStore to any SpillStore:
//    transient errors, a permanent failure after a write/read budget, short
//    writes that persist only a prefix of a batch, and latency spikes.
//
//  - Stream contract violations (StreamFaultSpec), applied by
//    PerturbStream to an element stream: late tuples that match an
//    already-emitted punctuation, malformed punctuations, duplicates,
//    (order-preserving-multiset) reordering, and producer stalls.
//
//  - Handoff faults (MigrationFaultSpec), applied by ParallelJoinPipeline:
//    a failed state extract at the source of a hot-key replication.
//
// See docs/ROBUSTNESS.md for the full fault model and the degradation
// ladder that answers each fault.

#ifndef PJOIN_FAULT_FAULT_PLAN_H_
#define PJOIN_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>

#include "common/clock.h"

namespace pjoin {

/// Faults injected into SpillStore operations.
struct IoFaultSpec {
  /// Probability that a write (AppendBatch) fails with a transient IOError.
  double transient_write_error_rate = 0.0;
  /// Probability that a read (ReadPartition) fails with a transient IOError.
  double transient_read_error_rate = 0.0;
  /// Probability that an AppendBatch persists only a strict prefix of its
  /// records before failing (a short write). The surviving prefix stays in
  /// the store, so naive retries would duplicate records.
  double short_write_rate = 0.0;
  /// Probability that an operation is charged a latency spike.
  double latency_spike_rate = 0.0;
  /// Size of one latency spike (added to simulated_latency_micros).
  int64_t latency_spike_micros = 10000;
  /// After this many successful writes every further write fails
  /// permanently (reads keep working — the medium went read-only, the
  /// common disk-full / write-protect failure). -1 disables.
  int64_t permanent_write_failure_after = -1;
  /// After this many successful reads every further read fails permanently.
  /// -1 disables. Note: permanent read failure means data behind it is
  /// unrecoverable; RecoveringSpillStore will surface the loss.
  int64_t permanent_read_failure_after = -1;
  /// Partition targeted by the partition_* rates below (-1 targets none):
  /// per-partition faults exercise the SpillManager's quarantine/degrade
  /// ladder, which global rates cannot isolate.
  int target_partition = -1;
  /// Probability that a write touching `target_partition` fails.
  double partition_write_error_rate = 0.0;
  /// Probability that a read of `target_partition` fails.
  double partition_read_error_rate = 0.0;
  /// Probability that an operation issued while a spilled partition is
  /// being split (SpillPhase::kRepartition, any partition) fails —
  /// exercises SplitSpilledPartition's all-or-nothing recovery.
  double repartition_error_rate = 0.0;

  bool enabled() const {
    return transient_write_error_rate > 0 || transient_read_error_rate > 0 ||
           short_write_rate > 0 || latency_spike_rate > 0 ||
           permanent_write_failure_after >= 0 ||
           permanent_read_failure_after >= 0 ||
           (target_partition >= 0 && (partition_write_error_rate > 0 ||
                                      partition_read_error_rate > 0)) ||
           repartition_error_rate > 0;
  }

  std::string ToString() const;
};

/// Contract violations injected into one element stream.
struct StreamFaultSpec {
  /// Probability (per passing element) of injecting a *late tuple*: a
  /// re-emission of a tuple whose key was already covered by one of this
  /// stream's own punctuations — the canonical violation of the §2.2
  /// promise.
  double late_tuple_rate = 0.0;
  /// Probability of injecting a malformed punctuation: wrong arity for the
  /// schema, or one containing an empty pattern.
  double malformed_punct_rate = 0.0;
  /// Probability of immediately re-emitting the current tuple. When the
  /// duplicate's key is already punctuated it is a detectable violation
  /// (counted as one); otherwise it is an undetectable workload anomaly
  /// that legitimately changes the join output.
  double duplicate_rate = 0.0;
  /// Probability of swapping the current tuple with the next element when
  /// that is also a tuple. Arrival stamps are swapped too, so the stream
  /// stays time-ordered and the result multiset is unchanged (tuple-tuple
  /// swaps never cross a punctuation).
  double reorder_rate = 0.0;
  /// Probability of a producer stall: all subsequent arrivals shift later
  /// by stall_micros, opening a lull the consumer sees as a stalled input.
  double stall_rate = 0.0;
  TimeMicros stall_micros = 50000;

  bool enabled() const {
    return late_tuple_rate > 0 || malformed_punct_rate > 0 ||
           duplicate_rate > 0 || reorder_rate > 0 || stall_rate > 0;
  }

  std::string ToString() const;
};

/// Faults injected into the parallel pipeline's hot-key replication
/// handoff (ops/repartition.h). Rolled on the router thread from the plan's
/// seed, so a chaos run replays bit-identically; the pipeline answers every
/// injected failure with a clean rollback (the key stays at its owner, the
/// shard map stays unchanged). Installs cannot fail, so the extract is the
/// only step with a fault.
struct MigrationFaultSpec {
  /// Probability that a handoff's source-side state extraction fails.
  double extract_error_rate = 0.0;

  bool enabled() const { return extract_error_rate > 0; }

  std::string ToString() const;
};

/// One complete chaos configuration: a seed plus per-side stream faults and
/// the I/O faults of the spill stores.
struct FaultPlan {
  uint64_t seed = 1;
  StreamFaultSpec stream[2];
  IoFaultSpec io;
  MigrationFaultSpec migration;

  bool enabled() const {
    return stream[0].enabled() || stream[1].enabled() || io.enabled() ||
           migration.enabled();
  }

  std::string ToString() const;
};

}  // namespace pjoin

#endif  // PJOIN_FAULT_FAULT_PLAN_H_

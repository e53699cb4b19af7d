// PJoin: the paper's punctuation-exploiting stream join (§3).
//
// Six components, wired through the event-driven framework of §3.6:
//   memory join        — per-tuple probing, with on-the-fly dropping of
//                        tuples already covered by opposite punctuations;
//   state relocation   — flush memory partitions to disk on StateFullEvent;
//   disk join          — finish left-over joins (disk x memory, disk x disk,
//                        purge-buffer x disk) with duplicate avoidance, purge
//                        disk-resident tuples, re-index fetched tuples;
//   state purge        — eager/lazy (purge threshold) removal of tuples
//                        covered by the opposite stream's punctuations;
//   index build        — paper Fig 3, eager (per punctuation) or lazy (at
//                        propagation time);
//   propagation        — push mode (count / time thresholds) and pull mode
//                        (RequestPropagation), releasing punctuations whose
//                        match count reached zero.

#ifndef PJOIN_JOIN_PJOIN_H_
#define PJOIN_JOIN_PJOIN_H_

#include <memory>
#include <vector>

#include "exec/monitor.h"
#include "exec/registry.h"
#include "join/join_base.h"
#include "join/punct_index.h"
#include "punct/punctuation_set.h"

namespace pjoin {

class PJoin : public JoinOperator {
 public:
  PJoin(SchemaPtr left_schema, SchemaPtr right_schema,
        JoinOptions options = {});
  ~PJoin() override;

  /// Runs the disk join when the inputs stall and the activation threshold
  /// is met (the paper's scheduling policy for the disk join, §3.2).
  Status OnStreamsStalled() override;

  /// Pull-mode propagation: a downstream operator asks PJoin to propagate
  /// punctuations now (§3.5).
  Status RequestPropagation();

  // ---- Introspection ----
  const PunctuationSet& punct_set(int side) const;
  const EventRegistry& registry() const { return registry_; }
  EventRegistry& registry() { return registry_; }
  Monitor& monitor() { return *monitor_; }

  /// Elements set aside under ViolationPolicy::kQuarantine.
  const std::vector<Tuple>& quarantined_tuples(int side) const;
  const std::vector<Punctuation>& quarantined_puncts(int side) const;
  /// Total contract violations detected (also counter
  /// "contract_violations", split by kind as "violation_<kind>").
  int64_t contract_violations() const {
    return counters().Get("contract_violations");
  }

 protected:
  /// The memory-join hot path (§3.6): contract check, probe, on-the-fly
  /// drop, insert — all reusing the caller-provided key hash, so each key
  /// hashes exactly once end to end.
  Status OnTupleHashed(int side, const Tuple& tuple,
                       uint64_t key_hash) override;
  Status OnPunctuation(int side, const Punctuation& punct) override;
  Status Finish() override;
  /// Publishes the punctuation-set sizes (the live purge watermarks) and
  /// the punctuations received since the last purge (the stall
  /// diagnosis's unfired purges) next to the base-class state gauges.
  void PublishExtraGauges() override;

 private:
  // A component of §3.6: an event listener delegating to a PJoin method.
  class Component;

  /// State purge (§3.4): applies the purge rules to both states.
  Status RunPurge();
  Status PurgeState(int side);
  /// Disposes of the tuples a purge extracted from `side`'s memory
  /// partition `p`: those that may still join the opposite disk portion
  /// park in the purge buffer (dts `purge_tick`), the rest leave the join
  /// and their punctuations' match counts drop.
  void DisposePurged(int side, int p, std::vector<TupleEntry> extracted,
                     int64_t purge_tick);

  /// SpillManager early-purge hook: removes tuples of `side`'s partition
  /// `p` covered by the opposite punctuation set, in place, before the
  /// partition is spilled (PurgeState's disposal rule, one partition, no
  /// disk IO). Returns what was freed.
  EarlyPurgeOutcome EarlyPurgePartition(int side, int p);

  /// Disk join (§3.2): one pass over all partitions with disk-resident or
  /// purge-buffered data (stall activation, Finish).
  Status RunDiskJoin() { return DiskJoinPass(/*marked_only=*/false); }
  /// The disk join that precedes propagation (§3.5): only the partitions
  /// marked unindexed in either state or holding purge-buffered tuples.
  /// Every other partition's disk entries are already indexed and purged
  /// against every punctuation that can reach them; its pending pairs wait
  /// for a later pass, which the probe history keeps exact.
  Status RunMarkedDiskJoin() { return DiskJoinPass(/*marked_only=*/true); }
  /// Runs DiskJoinPartition over the chosen partitions and clears their
  /// marks.
  Status DiskJoinPass(bool marked_only);
  Status DiskJoinPartition(int p);

  /// Index build (Fig 3) over one stream's state.
  Status RunIndexBuild(int side);
  Status RunIndexBuildBoth();

  /// Propagation (Fig 3 + safety gate); ensures left-over joins and index
  /// building are complete first.
  Status RunPropagation();

  /// Final disposal of a state entry; maintains punctuation match counts.
  void DiscardEntry(int side, const TupleEntry& entry);

  /// Records one contract violation per the configured policy. `tuple` /
  /// `punct` (either may be null) is the offending element, quarantined
  /// under kQuarantine. Returns an error only under kFail.
  Status OnContractViolation(int side, std::string_view kind,
                             const Tuple* tuple, const Punctuation* punct);

  /// Clock mapping "now" to the last stream arrival time (virtual time).
  class ArrivalClock;

  std::unique_ptr<PunctuationSet> punct_sets_[2];
  EventRegistry registry_;
  std::unique_ptr<ArrivalClock> clock_;
  std::unique_ptr<Monitor> monitor_;
  /// Per partition: tick of the last disk-x-disk pass (both-disk pairs with
  /// dts at or before it are already joined).
  std::vector<int64_t> disk_pass_tick_;
  std::vector<Tuple> quarantined_tuples_[2];
  std::vector<Punctuation> quarantined_puncts_[2];
  bool extra_gauges_bound_ = false;
  obs::Gauge punct_set_gauge_[2];
  obs::Gauge puncts_since_purge_gauge_;
  std::unique_ptr<Component> purge_component_;
  std::unique_ptr<Component> relocation_component_;
  std::unique_ptr<Component> disk_join_component_;
  std::unique_ptr<Component> marked_disk_join_component_;
  std::unique_ptr<Component> index_build_component_;
  std::unique_ptr<Component> propagation_component_;
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_PJOIN_H_

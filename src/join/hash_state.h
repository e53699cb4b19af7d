// HashState: the join state of one input stream (paper §3.1).
//
// A fixed array of partitions; each partition has an in-memory portion (a
// bucket of tuple entries), an on-disk portion (spill-store id p, appended
// to by relocation and read back whole), and a purge buffer holding tuples
// that are logically purged but still owe joins against the opposite
// stream's disk portion. Probe history per partition supports XJoin-style
// timestamp duplicate avoidance.
//
// The memory portion keeps the paper's append-ordered vector (purge and
// index-build passes still scan it), but probing no longer does: each
// partition maintains a hash index over the vector — bucket heads plus a
// per-entry chain link, keyed by the entry's cached 64-bit join-key hash —
// so a probe touches only the entries of its own chain instead of the whole
// bucket. The index is maintained on insert, rebuilt after extraction, and
// dropped when a partition is flushed to disk.

#ifndef PJOIN_JOIN_HASH_STATE_H_
#define PJOIN_JOIN_HASH_STATE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "join/tuple_entry.h"
#include "storage/spill_store.h"

namespace pjoin {

class HashState {
 public:
  /// `key_index` is the join attribute within `schema`. The state takes
  /// ownership of its spill store. With `indexed` false the memory portion
  /// is probed by linear scan (the paper's layout; kept for the figure
  /// benches and as an ablation baseline).
  HashState(std::string name, SchemaPtr schema, size_t key_index,
            int num_partitions, std::unique_ptr<SpillStore> spill,
            bool indexed = true);

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t key_index() const { return key_index_; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  bool indexed() const { return indexed_; }

  /// The join-key value of a tuple of this stream.
  [[nodiscard]] const Value& KeyOf(const Tuple& t) const {
    return t.field(key_index_);
  }
  /// The partition a key hashes to.
  [[nodiscard]] int PartitionOf(const Value& key) const;
  /// The partition a precomputed key hash maps to (same mapping as
  /// PartitionOf(key) for key_hash == key.Hash()).
  [[nodiscard]] int PartitionOfHash(uint64_t key_hash) const {
    return static_cast<int>(key_hash % partitions_.size());
  }

  // ---- Memory portion ----

  /// Appends an entry to the memory portion of its partition, caching the
  /// join-key hash in the entry and linking it into the partition's index.
  void InsertMemory(TupleEntry entry);

  /// The in-memory bucket of partition `p` in insertion order (purge and
  /// index-build passes scan this vector; probing should use
  /// ForEachMemoryMatch). Mutating entry keys through the non-const
  /// accessor would desynchronize the index; pid/timestamp updates are fine.
  const std::vector<TupleEntry>& memory(int p) const;
  std::vector<TupleEntry>& memory(int p);

  /// Invokes `fn(entry)` for every memory entry of partition `p` whose
  /// join key equals `key` (whose hash the caller supplies, so it is
  /// computed once per probe). Returns the number of entries examined —
  /// chain length when indexed, bucket size when scanning. `fn` must not
  /// mutate this state.
  template <typename Fn>
  int64_t ForEachMemoryMatch(int p, const Value& key, uint64_t key_hash,
                             Fn&& fn) const {
    const Partition& part = partition(p);
    int64_t examined = 0;
    if (!indexed_) {
      for (const TupleEntry& e : part.memory) {
        ++examined;
        if (KeyOf(e.tuple) == key) fn(e);
      }
      return examined;
    }
    if (part.index_heads.empty()) return 0;
    uint32_t i = part.index_heads[IndexBucket(key_hash, part.index_shift)];
    while (i != kIndexNil) {
      const TupleEntry& e = part.memory[i];
      ++examined;
      if (e.key_hash == key_hash && KeyOf(e.tuple) == key) fn(e);
      i = part.index_next[i];
    }
    return examined;
  }

  /// Removes and returns all memory entries of partition `p` for which
  /// `pred` holds, in insertion order, preserving the order of the kept
  /// entries. One in-order pass: each entry moves at most once, into the
  /// result or down over the gap the extracted ones left. The partition's
  /// index is rebuilt when anything was extracted.
  template <typename Pred>
  std::vector<TupleEntry> ExtractMemoryMatching(int p, Pred&& pred) {
    Partition& part = partition(p);
    auto& mem = part.memory;
    std::vector<TupleEntry> extracted;
    int64_t extracted_bytes = 0;
    size_t kept = 0;
    for (size_t i = 0; i < mem.size(); ++i) {
      if (pred(std::as_const(mem[i]))) {
        extracted_bytes += static_cast<int64_t>(mem[i].tuple.ByteSize());
        extracted.push_back(std::move(mem[i]));
      } else {
        if (kept != i) mem[kept] = std::move(mem[i]);
        ++kept;
      }
    }
    if (extracted.empty()) return extracted;
    mem.erase(mem.begin() + static_cast<std::ptrdiff_t>(kept), mem.end());
    memory_bytes_ -= extracted_bytes;
    part.memory_bytes -= extracted_bytes;
    memory_tuples_ -= static_cast<int64_t>(extracted.size());
    PJOIN_DCHECK(memory_tuples_ >= 0);
    PJOIN_DCHECK(memory_bytes_ >= 0);
    RebuildIndex(&part);
    return extracted;
  }

  int64_t memory_tuples() const { return memory_tuples_; }
  /// Approximate bytes held by the memory portion (tuple payloads).
  int64_t memory_bytes() const { return memory_bytes_; }

  /// Records a probe of partition `p`'s memory portion at `tick` (insert
  /// recency is tracked automatically); feeds the SpillManager's coldness
  /// scoring.
  void NotePartitionProbed(int p, int64_t tick);

  // ---- Per-partition view for the SpillManager ----

  int64_t PartitionMemoryTuples(int p) const;
  int64_t PartitionMemoryBytes(int p) const;
  /// Tick of the partition's most recent insert or probe (0 = never).
  int64_t PartitionLastAccessTick(int p) const;

  // ---- Disk portion ----

  /// Moves the entire memory portion of partition `p` to disk, stamping the
  /// entries' dts with `dts_tick` (state relocation, §3.3). On failure the
  /// durable prefix of the batch (if any) is moved to the disk-portion
  /// accounting and only the unpersisted suffix stays resident and alive,
  /// so neither a retry nor an abort can lose or duplicate entries.
  Status FlushPartitionToDisk(int p, int64_t dts_tick);

  /// Reads back (deserializes) the disk portion of partition `p`, with key
  /// hashes recomputed.
  [[nodiscard]] Result<std::vector<TupleEntry>> ReadDiskPartition(int p);

  /// Replaces the disk portion of partition `p` with `survivors` (used by
  /// the disk join after purging disk-resident tuples).
  Status RewriteDiskPartition(int p, const std::vector<TupleEntry>& survivors);

  int64_t disk_tuples() const { return disk_tuples_; }
  int64_t disk_tuples(int p) const;

  // ---- Purge buffer ----

  /// Moves an entry into the purge buffer of partition `p`.
  void AddToPurgeBuffer(int p, TupleEntry entry);

  const std::vector<TupleEntry>& purge_buffer(int p) const;
  std::vector<TupleEntry>& purge_buffer(int p);

  /// Discards the purge buffer of partition `p`, returning its entries.
  std::vector<TupleEntry> TakePurgeBuffer(int p);

  int64_t purge_buffer_tuples() const { return purge_buffer_tuples_; }

  // ---- Duplicate-avoidance probe history ----

  /// Records that the disk portion of partition `p` of *this* state was
  /// probed against the opposite memory portion at `tick`. Ticks must
  /// strictly increase per partition: JoinedBefore binary-searches them.
  void RecordProbe(int p, int64_t tick);
  /// Partition `p`'s probe ticks, in increasing order.
  const std::vector<int64_t>& probe_times(int p) const;

  // ---- Aggregates ----

  /// All tuples retained anywhere in the state (memory + disk + purge
  /// buffer): the paper's "number of tuples in the join state".
  [[nodiscard]] int64_t total_tuples() const {
    return memory_tuples_ + disk_tuples_ + purge_buffer_tuples_;
  }

  /// True while the disk portion of partition `p` may hold an entry that
  /// no disk-join pass has evaluated against every punctuation that can
  /// reach it: flushed with pid == kNullPid, or on disk when such a
  /// punctuation arrived. Such a partition blocks punctuation propagation
  /// until a pass over it indexes or purges those entries.
  bool has_unindexed_disk(int p) const {
    return partition(p).unindexed_disk;
  }
  void set_has_unindexed_disk(int p, bool v) {
    partition(p).unindexed_disk = v;
  }
  /// True while any partition is marked.
  bool has_unindexed_disk() const {
    return std::any_of(partitions_.begin(), partitions_.end(),
                       [](const Partition& part) {
                         return part.unindexed_disk;
                       });
  }

  const IoStats& io_stats() const { return spill_->io_stats(); }
  SpillStore* spill() { return spill_.get(); }

 private:
  /// End-of-chain marker in the per-partition index.
  static constexpr uint32_t kIndexNil = 0xffffffffu;

  struct Partition {
    std::vector<TupleEntry> memory;
    /// Hash index over `memory`: `index_heads` (power-of-two sized) holds
    /// the newest entry index per bucket, `index_next` chains to the
    /// previous same-bucket entry. Empty while the partition is empty or
    /// the state is unindexed.
    std::vector<uint32_t> index_heads;
    std::vector<uint32_t> index_next;
    /// 64 - log2(index_heads.size()), for the multiplicative bucket map.
    int index_shift = 0;
    std::vector<TupleEntry> purge_buffer;
    std::vector<int64_t> probe_times;
    int64_t disk_count = 0;
    bool unindexed_disk = false;
    /// Payload bytes of `memory` (the per-partition slice of memory_bytes_).
    int64_t memory_bytes = 0;
    /// Tick of the most recent insert into / probe of the memory portion.
    int64_t last_access_tick = 0;
  };

  /// Fibonacci (multiplicative) bucket map. The low bits of the key hash
  /// select the partition, so buckets must come from the mixed high bits or
  /// all entries of a partition would share a handful of buckets.
  static size_t IndexBucket(uint64_t key_hash, int shift) {
    return static_cast<size_t>((key_hash * 0x9e3779b97f4a7c15ull) >> shift);
  }

  /// Rebuilds the partition's index from scratch (after extraction or
  /// growth); clears it when the partition is empty.
  void RebuildIndex(Partition* part);

  const Partition& partition(int p) const;
  Partition& partition(int p);

  std::string name_;
  SchemaPtr schema_;
  size_t key_index_;
  std::unique_ptr<SpillStore> spill_;
  std::vector<Partition> partitions_;
  bool indexed_;
  int64_t memory_tuples_ = 0;
  int64_t memory_bytes_ = 0;
  int64_t disk_tuples_ = 0;
  int64_t purge_buffer_tuples_ = 0;
};

/// True when the pair (a, b) — a from the state whose disk-probe history is
/// `probes_a`, b from the opposite state with history `probes_b`, both of
/// the same partition — has already been emitted by the memory stage or an
/// earlier disk probe. The disk stages must skip such pairs. Both histories
/// must be sorted (RecordProbe's order); each is searched in O(log size).
bool JoinedBefore(const TupleEntry& a, const std::vector<int64_t>& probes_a,
                  const TupleEntry& b, const std::vector<int64_t>& probes_b);

}  // namespace pjoin

#endif  // PJOIN_JOIN_HASH_STATE_H_

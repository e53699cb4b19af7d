#include "join/hash_state.h"

#include <bit>

namespace pjoin {
namespace {

// Index sizing: power-of-two bucket counts, load factor <= 1.
size_t IndexSizeFor(size_t entries) {
  return std::bit_ceil(std::max<size_t>(entries, 8));
}

}  // namespace

HashState::HashState(std::string name, SchemaPtr schema, size_t key_index,
                     int num_partitions, std::unique_ptr<SpillStore> spill,
                     bool indexed)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_index_(key_index),
      spill_(std::move(spill)),
      partitions_(static_cast<size_t>(num_partitions)),
      indexed_(indexed) {
  PJOIN_DCHECK(num_partitions > 0);
  PJOIN_DCHECK(schema_ != nullptr);
  PJOIN_DCHECK(key_index_ < schema_->num_fields());
  PJOIN_DCHECK(spill_ != nullptr);
}

int HashState::PartitionOf(const Value& key) const {
  return PartitionOfHash(key.Hash());
}

const HashState::Partition& HashState::partition(int p) const {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  return partitions_[static_cast<size_t>(p)];
}

HashState::Partition& HashState::partition(int p) {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  return partitions_[static_cast<size_t>(p)];
}

void HashState::RebuildIndex(Partition* part) {
  if (!indexed_) return;
  if (part->memory.empty()) {
    part->index_heads.clear();
    part->index_next.clear();
    part->index_shift = 0;
    return;
  }
  const size_t buckets = IndexSizeFor(part->memory.size());
  part->index_shift = 64 - std::countr_zero(buckets);
  part->index_heads.assign(buckets, kIndexNil);
  part->index_next.assign(part->memory.size(), kIndexNil);
  for (uint32_t i = 0; i < part->memory.size(); ++i) {
    const size_t b =
        IndexBucket(part->memory[i].key_hash, part->index_shift);
    part->index_next[i] = part->index_heads[b];
    part->index_heads[b] = i;
  }
}

void HashState::InsertMemory(TupleEntry entry) {
  PJOIN_DCHECK(entry.InMemory());
  // A caller that already knows the key hash (the batched probe path, disk
  // read-back) seeds entry.key_hash; 0 means "not computed" (tuple_entry.h)
  // and recomputing is always safe, so a zero-hash key just loses caching.
  if (entry.key_hash == 0) entry.RecomputeKeyHash(key_index_);
  const int p = PartitionOfHash(entry.key_hash);
  const int64_t bytes = static_cast<int64_t>(entry.tuple.ByteSize());
  memory_bytes_ += bytes;
  Partition& part = partition(p);
  part.memory_bytes += bytes;
  part.last_access_tick = std::max(part.last_access_tick, entry.ats);
  part.memory.push_back(std::move(entry));
  ++memory_tuples_;
  if (!indexed_) return;
  if (part.memory.size() > part.index_heads.size()) {
    RebuildIndex(&part);  // grow (doubles the bucket count) and relink
  } else {
    const uint32_t i = static_cast<uint32_t>(part.memory.size() - 1);
    const size_t b =
        IndexBucket(part.memory[i].key_hash, part.index_shift);
    part.index_next.push_back(part.index_heads[b]);
    part.index_heads[b] = i;
  }
}

const std::vector<TupleEntry>& HashState::memory(int p) const {
  return partition(p).memory;
}

std::vector<TupleEntry>& HashState::memory(int p) {
  return partition(p).memory;
}

void HashState::NotePartitionProbed(int p, int64_t tick) {
  Partition& part = partition(p);
  part.last_access_tick = std::max(part.last_access_tick, tick);
}

int64_t HashState::PartitionMemoryTuples(int p) const {
  return static_cast<int64_t>(partition(p).memory.size());
}

int64_t HashState::PartitionMemoryBytes(int p) const {
  return partition(p).memory_bytes;
}

int64_t HashState::PartitionLastAccessTick(int p) const {
  return partition(p).last_access_tick;
}

Status HashState::FlushPartitionToDisk(int p, int64_t dts_tick) {
  Partition& part = partition(p);
  if (part.memory.empty()) return Status::OK();
  std::vector<std::string> records;
  records.reserve(part.memory.size());
  for (auto& entry : part.memory) {
    entry.dts = dts_tick;
    records.push_back(entry.Serialize());
  }
  const int64_t before = spill_->PartitionRecordCount(p);
  const Status append = spill_->AppendBatch(p, records);
  if (!append.ok()) {
    // The store may still have persisted a durable prefix of the batch
    // (short write, mid-batch error): AppendBatch commits its record count
    // only per durable page, and serialization follows memory order, so
    // exactly the first `persisted` entries are on disk. Account those as
    // disk-resident (a later retry must not write them again) and keep the
    // rest in memory, alive (they must not be lost).
    const int64_t persisted = spill_->PartitionRecordCount(p) - before;
    PJOIN_DCHECK(persisted >= 0 &&
                 persisted <= static_cast<int64_t>(part.memory.size()));
    if (persisted > 0) {
      bool unindexed = false;
      for (int64_t i = 0; i < persisted; ++i) {
        const TupleEntry& entry = part.memory[static_cast<size_t>(i)];
        if (entry.pid == kNullPid) unindexed = true;
        const int64_t bytes = static_cast<int64_t>(entry.tuple.ByteSize());
        memory_bytes_ -= bytes;
        part.memory_bytes -= bytes;
      }
      part.memory.erase(part.memory.begin(), part.memory.begin() + persisted);
      memory_tuples_ -= persisted;
      part.disk_count += persisted;
      disk_tuples_ += persisted;
      if (unindexed) part.unindexed_disk = true;
      RebuildIndex(&part);
    }
    for (auto& entry : part.memory) entry.dts = kAliveDts;
    return append;
  }
  const int64_t flushed = static_cast<int64_t>(part.memory.size());
  bool unindexed = false;
  for (const auto& entry : part.memory) {
    if (entry.pid == kNullPid) unindexed = true;
  }
  memory_bytes_ -= part.memory_bytes;
  part.memory_bytes = 0;
  part.memory.clear();
  part.index_heads.clear();
  part.index_next.clear();
  part.index_shift = 0;
  part.disk_count += flushed;
  memory_tuples_ -= flushed;
  disk_tuples_ += flushed;
  if (unindexed) part.unindexed_disk = true;
  return Status::OK();
}

Result<std::vector<TupleEntry>> HashState::ReadDiskPartition(int p) {
  PJOIN_DCHECK(p >= 0 && p < num_partitions());
  PJOIN_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         spill_->ReadPartition(p));
  std::vector<TupleEntry> entries;
  entries.reserve(records.size());
  for (const auto& record : records) {
    PJOIN_ASSIGN_OR_RETURN(TupleEntry entry,
                           TupleEntry::Deserialize(record, schema_));
    entry.RecomputeKeyHash(key_index_);
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status HashState::RewriteDiskPartition(
    int p, const std::vector<TupleEntry>& survivors) {
  Partition& part = partition(p);
  PJOIN_RETURN_NOT_OK(spill_->ClearPartition(p));
  disk_tuples_ -= part.disk_count;
  part.disk_count = 0;
  if (!survivors.empty()) {
    std::vector<std::string> records;
    records.reserve(survivors.size());
    for (const auto& entry : survivors) records.push_back(entry.Serialize());
    PJOIN_RETURN_NOT_OK(spill_->AppendBatch(p, records));
    part.disk_count = static_cast<int64_t>(survivors.size());
    disk_tuples_ += part.disk_count;
  }
  PJOIN_DCHECK(disk_tuples_ >= 0);
  return Status::OK();
}

int64_t HashState::disk_tuples(int p) const { return partition(p).disk_count; }

void HashState::AddToPurgeBuffer(int p, TupleEntry entry) {
  PJOIN_DCHECK(!entry.InMemory());
  if (entry.key_hash == 0) entry.RecomputeKeyHash(key_index_);
  partition(p).purge_buffer.push_back(std::move(entry));
  ++purge_buffer_tuples_;
}

const std::vector<TupleEntry>& HashState::purge_buffer(int p) const {
  return partition(p).purge_buffer;
}

std::vector<TupleEntry>& HashState::purge_buffer(int p) {
  return partition(p).purge_buffer;
}

std::vector<TupleEntry> HashState::TakePurgeBuffer(int p) {
  auto& buf = partition(p).purge_buffer;
  std::vector<TupleEntry> taken = std::move(buf);
  buf.clear();
  purge_buffer_tuples_ -= static_cast<int64_t>(taken.size());
  PJOIN_DCHECK(purge_buffer_tuples_ >= 0);
  return taken;
}

void HashState::RecordProbe(int p, int64_t tick) {
  std::vector<int64_t>& probes = partition(p).probe_times;
  PJOIN_DCHECK(probes.empty() || probes.back() < tick);
  probes.push_back(tick);
}

const std::vector<int64_t>& HashState::probe_times(int p) const {
  return partition(p).probe_times;
}

bool JoinedBefore(const TupleEntry& a, const std::vector<int64_t>& probes_a,
                  const TupleEntry& b, const std::vector<int64_t>& probes_b) {
  if (IntervalsOverlap(a, b)) return true;
  // A disk probe of x's side at tick T joined (x, y) when x was on disk by T
  // and y was memory-resident at T: max(x.dts, y.ats) <= T < y.dts. The
  // first probe at or after the lower bound decides.
  auto probed_between = [](const std::vector<int64_t>& probes, int64_t from,
                           int64_t until) {
    auto it = std::lower_bound(probes.begin(), probes.end(), from);
    return it != probes.end() && *it < until;
  };
  return probed_between(probes_a, std::max(a.dts, b.ats), b.dts) ||
         probed_between(probes_b, std::max(b.dts, a.ats), a.dts);
}

}  // namespace pjoin

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
      indexed_(indexed),
      next_spill_unit_id_(num_partitions) {
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

int HashState::LargestMemoryPartition() const {
  int best = -1;
  size_t best_size = 0;
  for (int p = 0; p < num_partitions(); ++p) {
    const size_t size = partitions_[static_cast<size_t>(p)].memory.size();
    if (size > best_size) {
      best_size = size;
      best = p;
    }
  }
  return best;
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

namespace {

// Sub-partition group of a record within a unit at `depth`: a further
// `fanout`-way slice of the hash bits above the partition selector. Records
// in a depth-d unit already agree on the slices below d.
int SpillUnitGroup(uint64_t key_hash, int num_partitions, int depth,
                   int fanout) {
  uint64_t h = key_hash / static_cast<uint64_t>(num_partitions);
  for (int d = 0; d < depth; ++d) h /= static_cast<uint64_t>(fanout);
  return static_cast<int>(h % static_cast<uint64_t>(fanout));
}

}  // namespace

int64_t HashState::LargestSpillUnitRecords(int p) const {
  const Partition& part = partition(p);
  int64_t largest = spill_->PartitionRecordCount(p);
  for (const Partition::SpillUnit& unit : part.spill_units) {
    largest = std::max(largest, spill_->PartitionRecordCount(unit.id));
  }
  return largest;
}

Status HashState::SplitSpilledPartition(int p, int fanout, int max_depth) {
  PJOIN_DCHECK(fanout > 1);
  Partition& part = partition(p);
  // The victim unit: the largest of base + sub-units.
  int unit_id = p;
  int unit_depth = 0;
  int unit_index = -1;  // index in spill_units; -1 = base
  int64_t unit_records = spill_->PartitionRecordCount(p);
  for (size_t i = 0; i < part.spill_units.size(); ++i) {
    const int64_t count =
        spill_->PartitionRecordCount(part.spill_units[i].id);
    if (count > unit_records) {
      unit_records = count;
      unit_id = part.spill_units[i].id;
      unit_depth = part.spill_units[i].depth;
      unit_index = static_cast<int>(i);
    }
  }
  if (unit_records == 0) {
    return Status::FailedPrecondition("nothing spilled to split");
  }
  if (unit_depth >= max_depth) {
    return Status::FailedPrecondition("split depth exhausted");
  }
  // All IO below runs in the repartition phase so fault plans can target it.
  SpillPhaseScope phase(SpillPhase::kRepartition);
  PJOIN_ASSIGN_OR_RETURN(std::vector<std::string> records,
                         spill_->ReadPartition(unit_id));
  PJOIN_DCHECK(static_cast<int64_t>(records.size()) == unit_records);
  std::vector<std::vector<std::string>> groups(static_cast<size_t>(fanout));
  for (const std::string& record : records) {
    PJOIN_ASSIGN_OR_RETURN(TupleEntry entry,
                           TupleEntry::Deserialize(record, schema_));
    entry.RecomputeKeyHash(key_index_);
    const int g = SpillUnitGroup(entry.key_hash, num_partitions(),
                                 unit_depth, fanout);
    groups[static_cast<size_t>(g)].push_back(record);
  }
  int nonempty = 0;
  for (const auto& group : groups) {
    if (!group.empty()) ++nonempty;
  }
  if (nonempty <= 1) {
    // Deeper hash bits cannot separate these records (one hot key): no
    // progress is possible at this or any greater depth.
    return Status::FailedPrecondition("split makes no progress");
  }
  // Write all new units to fresh ids before touching the old one: a failure
  // here leaves the mapping on the intact old unit (new ids become
  // unreferenced orphans — wasted pages, never wrong results).
  std::vector<Partition::SpillUnit> fresh;
  Status write_status;
  for (auto& group : groups) {
    if (group.empty()) continue;
    const int id = next_spill_unit_id_++;
    write_status = spill_->AppendBatch(id, group);
    if (!write_status.ok()) break;
    fresh.push_back(Partition::SpillUnit{id, unit_depth + 1});
  }
  if (!write_status.ok()) {
    for (const Partition::SpillUnit& unit : fresh) {
      // Best-effort space reclamation; the ids are orphaned either way.
      const Status cleared = spill_->ClearPartition(unit.id);
      if (!cleared.ok()) break;
    }
    return write_status;
  }
  if (unit_index < 0) {
    // Splitting the base unit: it stays the flush target, so it must really
    // be emptied before the new units join the mapping, or a re-read would
    // see every record twice. On failure, undo by orphaning the new units.
    const Status cleared = spill_->ClearPartition(unit_id);
    if (!cleared.ok()) {
      for (const Partition::SpillUnit& unit : fresh) {
        const Status undo = spill_->ClearPartition(unit.id);
        if (!undo.ok()) break;
      }
      return cleared;
    }
  } else {
    // A sub-unit is dropped from the mapping first; clearing its id after
    // that is pure space reclamation (an orphan on failure, never re-read).
    part.spill_units.erase(part.spill_units.begin() + unit_index);
    if (const Status cleared = spill_->ClearPartition(unit_id);
        !cleared.ok()) {
      // The id is orphaned: wasted pages until Close, but never re-read.
    }
  }
  part.spill_units.insert(part.spill_units.end(), fresh.begin(), fresh.end());
  return Status::OK();
}

Result<std::vector<TupleEntry>> HashState::ReadDiskPartition(int p) {
  const Partition& part = partition(p);
  std::vector<int> unit_ids;
  unit_ids.reserve(1 + part.spill_units.size());
  unit_ids.push_back(p);
  for (const Partition::SpillUnit& unit : part.spill_units) {
    unit_ids.push_back(unit.id);
  }
  std::vector<TupleEntry> entries;
  for (int id : unit_ids) {
    PJOIN_ASSIGN_OR_RETURN(std::vector<std::string> records,
                           spill_->ReadPartition(id));
    entries.reserve(entries.size() + records.size());
    for (const auto& record : records) {
      PJOIN_ASSIGN_OR_RETURN(TupleEntry entry,
                             TupleEntry::Deserialize(record, schema_));
      entry.RecomputeKeyHash(key_index_);
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

Status HashState::RewriteDiskPartition(
    int p, const std::vector<TupleEntry>& survivors) {
  Partition& part = partition(p);
  PJOIN_RETURN_NOT_OK(spill_->ClearPartition(p));
  for (const Partition::SpillUnit& unit : part.spill_units) {
    PJOIN_RETURN_NOT_OK(spill_->ClearPartition(unit.id));
  }
  part.spill_units.clear();
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

std::string HashState::DescribeState() const {
  std::string out = name_ + " state: " + std::to_string(memory_tuples_) +
                    " mem (" + std::to_string(memory_bytes_) + " B), " +
                    std::to_string(disk_tuples_) + " disk, " +
                    std::to_string(purge_buffer_tuples_) + " buffered\n";
  for (int p = 0; p < num_partitions(); ++p) {
    const Partition& part = partitions_[static_cast<size_t>(p)];
    if (part.memory.empty() && part.disk_count == 0 &&
        part.purge_buffer.empty()) {
      continue;
    }
    out += "  partition " + std::to_string(p) + ": mem=" +
           std::to_string(part.memory.size()) + " disk=" +
           std::to_string(part.disk_count) + " buffered=" +
           std::to_string(part.purge_buffer.size()) + " probes=" +
           std::to_string(part.probe_times.size()) + "\n";
  }
  return out;
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

#include "storage/table.h"

#include "common/metrics.h"
#include "storage/segment.h"

namespace provlin::storage {

namespace {

namespace metrics = common::metrics;

/// Process-wide access-path counters in the MetricsRegistry, bumped at
/// the same sites as the per-thread stats. The handles are resolved
/// once; each bump is a single relaxed add.
struct StorageMetrics {
  metrics::Counter* inserts = metrics::GetCounter("storage/inserts");
  metrics::Counter* deletes = metrics::GetCounter("storage/deletes");
  metrics::Counter* index_probes = metrics::GetCounter("storage/index_probes");
  metrics::Counter* full_scans = metrics::GetCounter("storage/full_scans");
  metrics::Counter* rows_examined =
      metrics::GetCounter("storage/rows_examined");
  metrics::Counter* batched_probes =
      metrics::GetCounter("storage/batched_probes");
  metrics::Counter* descents = metrics::GetCounter("storage/descents");
  metrics::Histogram* multiseek_batch = metrics::GetHistogram(
      "storage/multiseek_batch_size", metrics::DefaultSizeBounds());
};

StorageMetrics& Mx() {
  static StorageMetrics m;
  return m;
}

}  // namespace

ThreadStats& ThisThreadStats() {
  thread_local ThreadStats stats;
  return stats;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CreateIndex(const IndexSpec& spec) {
  if (spec.columns.empty()) {
    return Status::InvalidArgument("index '" + spec.name + "' has no columns");
  }
  if (HasIndex(spec.name)) {
    return Status::AlreadyExists("index '" + spec.name + "' already exists");
  }
  IndexPending();
  SecondaryIndex idx;
  idx.spec = spec;
  PROVLIN_ASSIGN_OR_RETURN(idx.column_idx,
                           schema_.ColumnIndices(spec.columns));
  if (spec.type == IndexType::kBTree) {
    idx.btree = std::make_unique<BPlusTree>();
  } else {
    idx.hash = std::make_unique<HashIndex>();
  }
  // Backfill from the heap.
  for (uint64_t rid = 0; rid < rows_.size(); ++rid) {
    if (deleted_[rid]) continue;
    Key key = ExtractKey(rows_[rid], idx);
    if (idx.btree != nullptr) {
      idx.btree->Insert(key, rid);
    } else {
      idx.hash->Insert(key, rid);
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

bool Table::HasIndex(std::string_view index_name) const {
  for (const auto& idx : indexes_) {
    if (idx.spec.name == index_name) return true;
  }
  return false;
}

std::vector<IndexSpec> Table::indexes() const {
  std::vector<IndexSpec> out;
  out.reserve(indexes_.size());
  for (const auto& idx : indexes_) out.push_back(idx.spec);
  return out;
}

void Table::AddToIndexes(const Row& row, uint64_t rid) {
  for (auto& idx : indexes_) {
    Key key = ExtractKey(row, idx);
    if (idx.btree != nullptr) {
      idx.btree->Insert(key, rid);
    } else {
      idx.hash->Insert(key, rid);
    }
  }
}

Result<uint64_t> Table::Insert(const Row& row) {
  PROVLIN_RETURN_IF_ERROR(schema_.ValidateRow(row));
  IndexPending();
  uint64_t rid = rows_.size();
  rows_.push_back(row);
  deleted_.push_back(false);
  ++live_rows_;
  pending_begin_ = rows_.size();
  Mx().inserts->Increment();
  AddToIndexes(row, rid);
  return rid;
}

Result<uint64_t> Table::Append(Row row) {
  PROVLIN_RETURN_IF_ERROR(schema_.ValidateRow(row));
  uint64_t rid = rows_.size();
  rows_.push_back(std::move(row));
  deleted_.push_back(false);
  ++live_rows_;
  ++pending_rows_;
  Mx().inserts->Increment();
  return rid;
}

void Table::IndexPending() {
  for (uint64_t rid = pending_begin_; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) AddToIndexes(rows_[rid], rid);
  }
  pending_begin_ = rows_.size();
  pending_rows_ = 0;
}

Result<std::vector<Row>> Table::TakeTail(uint64_t first_rid) {
  if (first_rid < pending_begin_ || first_rid > rows_.size()) {
    return Status::InvalidArgument(
        "tail from row " + std::to_string(first_rid) + " of table '" + name_ +
        "' is not pending (pending rows start at " +
        std::to_string(pending_begin_) + " of " +
        std::to_string(rows_.size()) + ")");
  }
  std::vector<Row> out;
  out.reserve(rows_.size() - first_rid);
  for (uint64_t rid = first_rid; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) out.push_back(std::move(rows_[rid]));
  }
  live_rows_ -= out.size();
  pending_rows_ -= out.size();
  rows_.resize(first_rid);
  deleted_.resize(first_rid);
  return out;
}

Status Table::Delete(uint64_t rid) {
  if (rid >= rows_.size() || deleted_[rid]) {
    return Status::NotFound("row " + std::to_string(rid) + " not found");
  }
  if (rid < pending_begin_) {
    for (auto& idx : indexes_) {
      Key key = ExtractKey(rows_[rid], idx);
      if (idx.btree != nullptr) {
        idx.btree->Erase(key, rid);
      } else {
        idx.hash->Erase(key, rid);
      }
    }
  } else {
    --pending_rows_;
  }
  // Release the payload, not just the slot: sealing a run into a
  // compressed segment deletes its rows and relies on the tombstones
  // not pinning the row heap.
  rows_[rid] = Row();
  deleted_[rid] = true;
  --live_rows_;
  Mx().deletes->Increment();
  return Status::OK();
}

Result<Row> Table::Get(uint64_t rid) const {
  if (rid >= rows_.size() || deleted_[rid]) {
    return Status::NotFound("row " + std::to_string(rid) + " not found");
  }
  ++ThisThreadStats().rows_examined;
  Mx().rows_examined->Increment();
  return rows_[rid];
}

const Row* Table::PeekRow(uint64_t rid) const {
  if (rid >= rows_.size() || deleted_[rid]) return nullptr;
  ++ThisThreadStats().rows_examined;
  Mx().rows_examined->Increment();
  return &rows_[rid];
}

Status Table::PendingRowsError() const {
  return Status::FailedPrecondition(
      "table '" + name_ + "' has " +
      std::to_string(rows_.size() - pending_begin_) +
      " unindexed rows; index reads need IndexPending() first");
}

Result<const Table::SecondaryIndex*> Table::FindIndex(
    std::string_view index_name) const {
  if (has_pending()) return PendingRowsError();
  for (const auto& idx : indexes_) {
    if (idx.spec.name == index_name) return &idx;
  }
  return Status::NotFound("no index named '" + std::string(index_name) +
                          "' on table '" + name_ + "'");
}

Result<std::vector<uint64_t>> Table::IndexLookup(std::string_view index_name,
                                                 const Key& key) const {
  PROVLIN_ASSIGN_OR_RETURN(const SecondaryIndex* idx, FindIndex(index_name));
  if (key.size() != idx->column_idx.size()) {
    return Status::InvalidArgument(
        "key arity " + std::to_string(key.size()) + " != index arity " +
        std::to_string(idx->column_idx.size()));
  }
  ++ThisThreadStats().index_probes;
  Mx().index_probes->Increment();
  if (idx->btree != nullptr) {
    ++ThisThreadStats().descents;
    Mx().descents->Increment();
    return idx->btree->Lookup(key);
  }
  return idx->hash->Lookup(key);
}

Result<std::vector<uint64_t>> Table::IndexPrefixLookup(
    std::string_view index_name, const Key& prefix) const {
  PROVLIN_ASSIGN_OR_RETURN(const SecondaryIndex* idx, FindIndex(index_name));
  if (idx->btree == nullptr) {
    return Status::InvalidArgument("prefix lookup requires a BTree index");
  }
  if (prefix.size() > idx->column_idx.size()) {
    return Status::InvalidArgument("prefix longer than index arity");
  }
  ++ThisThreadStats().index_probes;
  ++ThisThreadStats().descents;
  Mx().index_probes->Increment();
  Mx().descents->Increment();
  return idx->btree->PrefixLookup(prefix);
}

Result<bool> Table::IndexHasPrefix(std::string_view index_name,
                                   const Key& prefix) const {
  PROVLIN_ASSIGN_OR_RETURN(const SecondaryIndex* idx, FindIndex(index_name));
  if (idx->btree == nullptr) {
    return Status::InvalidArgument("prefix lookup requires a BTree index");
  }
  if (prefix.size() > idx->column_idx.size()) {
    return Status::InvalidArgument("prefix longer than index arity");
  }
  ++ThisThreadStats().index_probes;
  ++ThisThreadStats().descents;
  Mx().index_probes->Increment();
  Mx().descents->Increment();
  BPlusTree::Iterator it = idx->btree->Seek(prefix);
  return it.Valid() && KeyHasPrefix(it.key(), prefix);
}

Result<std::vector<uint64_t>> Table::IndexRangeLookup(
    std::string_view index_name, const Key& lo, const Key& hi) const {
  PROVLIN_ASSIGN_OR_RETURN(const SecondaryIndex* idx, FindIndex(index_name));
  if (idx->btree == nullptr) {
    return Status::InvalidArgument("range lookup requires a BTree index");
  }
  ++ThisThreadStats().index_probes;
  ++ThisThreadStats().descents;
  Mx().index_probes->Increment();
  Mx().descents->Increment();
  return idx->btree->RangeLookup(lo, hi);
}

Result<BPlusTree::MultiSeekResult> Table::IndexMultiSeek(
    std::string_view index_name,
    const std::vector<BPlusTree::Probe>& probes) const {
  PROVLIN_ASSIGN_OR_RETURN(const SecondaryIndex* idx, FindIndex(index_name));
  if (idx->btree == nullptr) {
    return Status::InvalidArgument("multi-seek requires a BTree index");
  }
  uint64_t n = probes.size();
  ThisThreadStats().index_probes += n;
  ThisThreadStats().batched_probes += n;
  Mx().index_probes->Add(n);
  Mx().batched_probes->Add(n);
  Mx().multiseek_batch->Observe(static_cast<double>(n));
  BPlusTree::MultiSeekResult result = idx->btree->MultiSeek(probes);
  ThisThreadStats().descents += result.descents;
  Mx().descents->Add(result.descents);
  return result;
}

std::vector<uint64_t> Table::FullScan() const {
  ++ThisThreadStats().full_scans;
  ThisThreadStats().rows_examined += rows_.size();
  Mx().full_scans->Increment();
  Mx().rows_examined->Add(rows_.size());
  std::vector<uint64_t> out;
  out.reserve(live_rows_);
  for (uint64_t rid = 0; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) out.push_back(rid);
  }
  return out;
}

void Table::ForEachLiveRow(
    const std::function<void(uint64_t rid, const Row& row)>& fn) const {
  for (uint64_t rid = 0; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) fn(rid, rows_[rid]);
  }
}

size_t Table::ApproxMemoryUsage() const {
  size_t total = sizeof(Table) + name_.capacity();
  total += rows_.capacity() * sizeof(Row);
  for (uint64_t rid = 0; rid < rows_.size(); ++rid) {
    if (!deleted_[rid]) total += RowApproxBytes(rows_[rid]) - sizeof(Row);
  }
  total += deleted_.capacity() / 8;
  for (const auto& idx : indexes_) {
    total += sizeof(SecondaryIndex) +
             idx.column_idx.capacity() * sizeof(size_t);
    if (idx.btree != nullptr) total += idx.btree->ApproxMemoryUsage();
    if (idx.hash != nullptr) total += idx.hash->ApproxMemoryUsage();
  }
  return total;
}

Key Table::ExtractKey(const Row& row, const SecondaryIndex& idx) const {
  Key key;
  key.reserve(idx.column_idx.size());
  for (size_t c : idx.column_idx) key.push_back(row[c]);
  return key;
}

Status Table::CheckIndexConsistency() const {
  if (has_pending()) return PendingRowsError();
  for (const auto& idx : indexes_) {
    size_t indexed =
        idx.btree != nullptr ? idx.btree->size() : idx.hash->size();
    if (indexed != live_rows_) {
      return Status::Corruption("index '" + idx.spec.name + "' holds " +
                                std::to_string(indexed) + " entries, heap " +
                                std::to_string(live_rows_));
    }
    if (idx.btree != nullptr) {
      PROVLIN_RETURN_IF_ERROR(idx.btree->CheckInvariants());
    }
    for (uint64_t rid = 0; rid < rows_.size(); ++rid) {
      if (deleted_[rid]) continue;
      Key key = ExtractKey(rows_[rid], idx);
      std::vector<uint64_t> rids = idx.btree != nullptr
                                       ? idx.btree->Lookup(key)
                                       : idx.hash->Lookup(key);
      bool found = false;
      for (uint64_t r : rids) {
        if (r == rid) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Corruption("row " + std::to_string(rid) +
                                  " missing from index '" + idx.spec.name +
                                  "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace provlin::storage

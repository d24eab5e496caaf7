#ifndef PROVLIN_STORAGE_TABLE_H_
#define PROVLIN_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/bplus_tree.h"
#include "storage/hash_index.h"
#include "storage/schema.h"

namespace provlin::storage {

enum class IndexType { kBTree, kHash };

/// Declarative secondary-index description.
struct IndexSpec {
  std::string name;
  std::vector<std::string> columns;
  IndexType type = IndexType::kBTree;
};

/// Per-thread access-path counters: the storage layer's only record of
/// read cost. Every read path (hot table lookups here, sealed segment
/// probes in the trace store) bumps the calling thread's plain
/// thread_local counters, so a query's cost is the delta of
/// ThisThreadStats() taken around it on its own thread — exact even while
/// other queries run concurrently. Process-wide totals live in the
/// metrics registry (storage/*), bumped at the same sites.
///
/// A batched lookup (IndexMultiSeek) counts each of its probes as a
/// logical index probe and as a batched one, but only the physical
/// root-to-leaf descents the batch actually paid: descents <= probes is
/// the point of the batched layer. Hash probes never descend.
struct ThreadStats {
  uint64_t index_probes = 0;
  uint64_t full_scans = 0;
  uint64_t rows_examined = 0;
  uint64_t batched_probes = 0;
  uint64_t descents = 0;

  uint64_t probes() const { return index_probes + full_scans; }
};

/// The calling thread's counters (monotonic; never reset by the layer).
ThreadStats& ThisThreadStats();

/// Heap table with optional secondary indexes. Rows are addressed by a
/// stable row id (their insertion ordinal); deletes tombstone in place.
///
/// Concurrency contract (DESIGN.md §10): the table itself is
/// single-writer — rows_, deleted_, and indexes_ carry no capability
/// because mutation is confined to capture/setup phases, while query
/// phases share the table read-only across threads (the regime the
/// LineageService batches run in; trace stores must be quiescent during
/// a batch). Const paths never write to the table: their cost goes to
/// the calling thread's ThreadStats and to the registry's relaxed
/// atomic counters.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Registers and backfills a secondary index.
  Status CreateIndex(const IndexSpec& spec);

  bool HasIndex(std::string_view index_name) const;
  std::vector<IndexSpec> indexes() const;

  /// Appends a row; returns its row id. The row must match the schema.
  Result<uint64_t> Insert(const Row& row);

  /// Tombstones a row and removes it from all indexes.
  Status Delete(uint64_t rid);

  /// Fetches a live row.
  Result<Row> Get(uint64_t rid) const;

  /// Zero-copy read of a live row: a pointer into the table's own row
  /// storage, or nullptr for dead/out-of-range rids. The pointer is
  /// invalidated by the next write to this table (Insert may reallocate
  /// the heap, Delete tombstones) — callers on the read-only query path
  /// must finish with it before any mutation.
  const Row* PeekRow(uint64_t rid) const;

  /// Row ids whose indexed columns equal `key` (one datum per index
  /// column, in index order).
  Result<std::vector<uint64_t>> IndexLookup(std::string_view index_name,
                                            const Key& key) const;

  /// Row ids whose leading indexed columns equal `prefix` (BTree only).
  Result<std::vector<uint64_t>> IndexPrefixLookup(std::string_view index_name,
                                                  const Key& prefix) const;

  /// Row ids with lo <= indexed-key <= hi (BTree only; composite bounds).
  Result<std::vector<uint64_t>> IndexRangeLookup(std::string_view index_name,
                                                 const Key& lo,
                                                 const Key& hi) const;

  /// Answers a batch of probes against one BTree index in a single
  /// amortized pass (see BPlusTree::MultiSeek). Counts every probe as a
  /// logical index probe (and as a batched one), but only the physical
  /// descents the batch actually paid.
  Result<BPlusTree::MultiSeekResult> IndexMultiSeek(
      std::string_view index_name,
      const std::vector<BPlusTree::Probe>& probes) const;

  /// All live row ids, in insertion order. Counts as a full scan.
  std::vector<uint64_t> FullScan() const;

  /// Visits every live row in rid order without moving any access-path
  /// counter. Maintenance-path enumeration (segment seal/unseal, image
  /// writers) — not a query surface, so cost attribution around queries
  /// stays undisturbed.
  void ForEachLiveRow(
      const std::function<void(uint64_t rid, const Row& row)>& fn) const;

  /// Approximate resident bytes: row payloads (live slots only — Delete
  /// releases a tombstoned row's storage), the slot/tombstone vectors,
  /// and every secondary index.
  size_t ApproxMemoryUsage() const;

  size_t num_rows() const { return live_rows_; }
  size_t num_slots() const { return rows_.size(); }

  /// Verifies that every index agrees with the heap (used in tests).
  Status CheckIndexConsistency() const;

 private:
  struct SecondaryIndex {
    IndexSpec spec;
    std::vector<size_t> column_idx;
    std::unique_ptr<BPlusTree> btree;  // when type == kBTree
    std::unique_ptr<HashIndex> hash;   // when type == kHash
  };

  Key ExtractKey(const Row& row, const SecondaryIndex& idx) const;
  Result<const SecondaryIndex*> FindIndex(std::string_view index_name) const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  size_t live_rows_ = 0;
  std::vector<SecondaryIndex> indexes_;
};

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_TABLE_H_

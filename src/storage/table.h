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
/// Indexing may be deferred: Append stores a row without index entries,
/// and every row from the first appended one to the end of the heap is
/// *pending* until IndexPending catches the indexes up. Heap reads (Get,
/// PeekRow, FullScan, ForEachLiveRow) and Delete treat pending rows as
/// live rows; index reads refuse to run while any are pending, so a
/// missed catch-up is a loud error rather than a silently missing row.
/// TakeTail moves pending rows back out without any index work.
///
/// Concurrency contract (DESIGN.md §10): the table itself is
/// single-writer — rows_, deleted_, and indexes_ carry no capability
/// because mutation is confined to capture/setup phases, while query
/// phases share the table read-only across threads (the regime the
/// LineageService batches run in; trace stores must be quiescent during
/// a batch). Append, IndexPending and TakeTail are writes like Insert.
/// Const paths never write to the table: their cost goes to the calling
/// thread's ThreadStats and to the registry's relaxed atomic counters.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Registers and backfills a secondary index (indexing pending rows
  /// first).
  Status CreateIndex(const IndexSpec& spec);

  bool HasIndex(std::string_view index_name) const;
  std::vector<IndexSpec> indexes() const;

  /// Appends a row and indexes it; returns its row id. The row must
  /// match the schema. Pending rows are indexed first, so every indexed
  /// rid precedes every pending one.
  Result<uint64_t> Insert(const Row& row);

  /// Appends a row without index entries (it becomes pending); returns
  /// its row id. The row must match the schema.
  Result<uint64_t> Append(Row row);

  /// Indexes every pending row. A no-op when none are pending.
  void IndexPending();

  /// Moves the live pending rows [first_rid, end) out of the heap in rid
  /// order and shrinks the heap to `first_rid` slots. No index work:
  /// the rows were never indexed. InvalidArgument unless
  /// pending_begin() <= first_rid <= num_slots().
  Result<std::vector<Row>> TakeTail(uint64_t first_rid);

  /// Tombstones a row and removes it from all indexes (a pending row
  /// has no index entries to remove).
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

  /// Whether some row's leading indexed columns equal `prefix` (BTree
  /// only): one descent, stopping at the first match.
  Result<bool> IndexHasPrefix(std::string_view index_name,
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
  /// Live rows that carry index entries (num_rows() minus the live
  /// pending rows).
  size_t num_indexed_rows() const { return live_rows_ - pending_rows_; }
  /// First pending rid; num_slots() when nothing is pending.
  uint64_t pending_begin() const { return pending_begin_; }
  bool has_pending() const { return pending_begin_ < rows_.size(); }

  /// Verifies that every index agrees with the heap (used in tests).
  /// Pending rows count as an inconsistency.
  Status CheckIndexConsistency() const;

 private:
  struct SecondaryIndex {
    IndexSpec spec;
    std::vector<size_t> column_idx;
    std::unique_ptr<BPlusTree> btree;  // when type == kBTree
    std::unique_ptr<HashIndex> hash;   // when type == kHash
  };

  Key ExtractKey(const Row& row, const SecondaryIndex& idx) const;
  void AddToIndexes(const Row& row, uint64_t rid);
  Status PendingRowsError() const;
  /// The one entry point of every index read: FailedPrecondition while
  /// rows are pending, NotFound for an unknown index.
  Result<const SecondaryIndex*> FindIndex(std::string_view index_name) const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  size_t live_rows_ = 0;
  /// Rows [pending_begin_, rows_.size()) have no index entries;
  /// pending_rows_ of them are live.
  uint64_t pending_begin_ = 0;
  size_t pending_rows_ = 0;
  std::vector<SecondaryIndex> indexes_;
};

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_TABLE_H_

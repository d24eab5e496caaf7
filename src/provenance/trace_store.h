#ifndef PROVLIN_PROVENANCE_TRACE_STORE_H_
#define PROVLIN_PROVENANCE_TRACE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/interner.h"
#include "common/sync.h"
#include "common/result.h"
#include "storage/database.h"
#include "storage/query.h"
#include "storage/wal.h"
#include "values/index.h"
#include "values/value.h"

namespace provlin::provenance {

using common::IndexId;
using common::SymbolId;

/// One xform dependency row, decoded. Names are interned: the run,
/// processor, and port fields hold SymbolIds from the owning database's
/// SymbolTable (resolve with TraceStore::NameOf). in_* fields are absent
/// for workflow-input source rows (and out_* for sink-only rows).
struct XformRecord {
  SymbolId run = common::kNoSymbol;
  int64_t event_id = 0;
  SymbolId processor = common::kNoSymbol;
  bool has_in = false;
  SymbolId in_port = common::kNoSymbol;
  Index in_index;
  int64_t in_value = -1;
  bool has_out = false;
  SymbolId out_port = common::kNoSymbol;
  Index out_index;
  int64_t out_value = -1;
};

/// One xfer row, decoded (interned names, as in XformRecord).
struct XferRecord {
  SymbolId run = common::kNoSymbol;
  SymbolId src_proc = common::kNoSymbol;
  SymbolId src_port = common::kNoSymbol;
  Index src_index;
  SymbolId dst_proc = common::kNoSymbol;
  SymbolId dst_port = common::kNoSymbol;
  Index dst_index;
  int64_t value_id = -1;
};

/// One probe of a batched lineage level: which (processor, port) pair of
/// which run is asked about, at which index. The same shape serves all
/// four overlap probes (producing / consuming / xfer-into / xfer-from).
/// Probes are run-qualified so one batch may span runs — and therefore
/// shards: the store groups a batch by owning shard, fans the per-shard
/// sub-batches out, and merges results back in probe order.
struct PortProbe {
  SymbolId run = common::kNoSymbol;
  SymbolId processor = common::kNoSymbol;
  SymbolId port = common::kNoSymbol;
  Index index;
};

/// Logical index probes one overlap probe at `index` costs, on either
/// tier: one range probe for the whole value, else one equality probe
/// per prefix of `index` plus one extension range. The unit of the
/// storage probe counters (LineageTiming::trace_probes).
inline uint64_t OverlapProbeCount(const Index& index) {
  return index.empty() ? 1 : index.length() + 2;
}

/// Per-batch dedup memo for identical trace probes. The LineageService
/// installs one per batch (via ProbeMemoScope): the first request to
/// issue a given (probe kind, run, processor, port, index) pays the
/// storage probes, every later identical probe in the batch is answered
/// from memory. Internally synchronized — one memo is shared by all
/// workers of a batch.
class ProbeMemo {
 public:
  ProbeMemo() = default;
  ProbeMemo(const ProbeMemo&) = delete;
  ProbeMemo& operator=(const ProbeMemo&) = delete;

  /// Probes answered from the memo / total memo consultations.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }

 private:
  friend class TraceStore;
  /// (database, probe kind, run, packed (processor, port), index). Ids
  /// are scoped to a database, and one batch may span stores. The index
  /// path itself, not an interned id: a batch needs only equality, and
  /// must not grow the store's saved index dictionary.
  using Key =
      std::tuple<const storage::Database*, int, SymbolId, uint64_t, Index>;

  /// Selects the map for a record type; REQUIRES makes every access
  /// site prove it holds the memo mutex (the maps are only reachable
  /// through this accessor from TraceStore's memo-aware probes).
  template <typename Record>
  auto& MapFor() REQUIRES(mu_) {
    if constexpr (std::is_same_v<Record, XformRecord>) {
      return xform_;
    } else {
      return xfer_;
    }
  }

  common::Mutex mu_{common::LockRank::kProbeMemo};
  std::map<Key, std::shared_ptr<const std::vector<XformRecord>>> xform_
      GUARDED_BY(mu_);
  std::map<Key, std::shared_ptr<const std::vector<XferRecord>>> xfer_
      GUARDED_BY(mu_);
  /// Hit/lookup tallies stay relaxed atomics — bumped outside mu_ on
  /// the probe fast path, racy-exact under concurrency, exact once the
  /// batch that shares the memo has quiesced.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> lookups_{0};
};

/// RAII installer: makes `memo` the calling thread's active probe memo
/// for the scope's lifetime (scopes nest; the previous memo is restored
/// on destruction). TraceStore's id-space Find* probes consult the
/// active memo transparently.
class ProbeMemoScope {
 public:
  explicit ProbeMemoScope(ProbeMemo* memo);
  ~ProbeMemoScope();
  ProbeMemoScope(const ProbeMemoScope&) = delete;
  ProbeMemoScope& operator=(const ProbeMemoScope&) = delete;

  /// The calling thread's active memo (nullptr outside any scope).
  static ProbeMemo* Active();

 private:
  ProbeMemo* prev_;
};

/// Per-shard / per-tier attribution of one request's physical probe
/// work, filled in by TraceStore's Find* probes when a scope is
/// installed (DESIGN.md §14). Only *physical* probes are credited: a
/// probe answered from the batch's ProbeMemo touched no storage and
/// contributes nothing here (the memo hit is visible separately via
/// ProbeMemo::hits()). Unlike ProbeMemo this is not internally
/// synchronized — a breakdown belongs to exactly one request and is
/// only ever credited on the thread that installed the scope (the
/// batch fan-out harvests worker deltas back to the caller thread
/// first, the same path that keeps ThreadStats attribution exact).
struct ProbeBreakdown {
  struct PerShard {
    uint64_t probes = 0;    ///< logical index probes issued to the shard
    uint64_t descents = 0;  ///< physical descents (tree or segment search)
    uint64_t rows = 0;      ///< rows/entries examined
  };
  std::map<uint32_t, PerShard> shards;
  uint64_t sealed_probes = 0;  ///< probes answered by sealed segments
  uint64_t sealed_rows = 0;    ///< entries examined inside segments

  void CreditShard(uint32_t shard, uint64_t probes, uint64_t descents,
                   uint64_t rows) {
    PerShard& s = shards[shard];
    s.probes += probes;
    s.descents += descents;
    s.rows += rows;
  }
  void CreditSealed(uint64_t probes, uint64_t rows) {
    sealed_probes += probes;
    sealed_rows += rows;
  }
};

/// RAII installer mirroring ProbeMemoScope: makes `breakdown` the
/// calling thread's active probe breakdown (scopes nest; the previous
/// breakdown is restored on destruction).
class ProbeBreakdownScope {
 public:
  explicit ProbeBreakdownScope(ProbeBreakdown* breakdown);
  ~ProbeBreakdownScope();
  ProbeBreakdownScope(const ProbeBreakdownScope&) = delete;
  ProbeBreakdownScope& operator=(const ProbeBreakdownScope&) = delete;

  /// The calling thread's active breakdown (nullptr outside any scope).
  static ProbeBreakdown* Active();

 private:
  ProbeBreakdown* prev_;
};

/// Per-run record counts (the paper's "number of trace database
/// records", Table 1: xform + xfer rows).
struct TraceCounts {
  size_t xform_rows = 0;
  size_t xfer_rows = 0;
  size_t value_rows = 0;

  size_t TotalDependencyRecords() const { return xform_rows + xfer_rows; }
};

/// When (if ever) runs are sealed into compressed immutable segments
/// (DESIGN.md §13). Sealing is run-granular and per-table: a sealed
/// run's xform/xfer rows leave the mutable B+-tree tier and live in a
/// storage::Segment blob; probes against it decode compressed blocks
/// in place. Writing trace rows to a sealed run transparently unseals
/// it back into the hot tier first.
enum class CompressMode {
  /// Never seal. Opening an image that contains segments decodes them
  /// back into the hot tier (the escape hatch).
  kOff = 0,
  /// Seal cold runs: at Open every run except the latest per shard,
  /// and at InsertRun every prior run on the new run's shard. The run
  /// being captured stays hot; a run captured alone on its shard is
  /// held unindexed and sealed straight from the table's tail.
  kSeal = 1,
  /// Seal every run, including the latest, at Open and on Flush().
  /// Maximal footprint reduction; appends pay an unseal.
  kAlways = 2,
};

/// How a TraceStore is opened (DESIGN.md §11).
struct TraceStoreOptions {
  /// Number of run shards. 0 = auto: the count recorded in the database
  /// image if one exists, else the PROVLIN_TEST_SHARDS environment
  /// variable, else 1. An explicit count that differs from the image's
  /// triggers resharding: rows migrate to the shard their run hashes to
  /// under the new count.
  size_t shards = 0;
  /// When true, each shard runs a dedicated writer thread draining a
  /// bounded ingest queue: Insert{Xform,Xfer} and value-row writes
  /// enqueue and return, and WAL append + B+-tree insert happen on the
  /// shard's writer. Errors latch per shard and surface on the next
  /// Flush() (or any synchronous op on that shard). When false, writes
  /// apply synchronously on the calling thread — the legacy behavior.
  bool async_ingest = false;
  /// Segment sealing policy. Unset = the PROVLIN_TEST_COMPRESS
  /// environment variable ("seal" / "always"), else kOff.
  std::optional<CompressMode> compress;
};

/// Typed query surface over the relational trace database — since the
/// run-sharding refactor, a routing facade over N physical shards
/// (ShardedTraceStore in DESIGN.md §11). Each shard owns its own copy
/// of the trace tables (and B+-trees), optionally its own WAL file and
/// ingest queue + writer thread; a run's rows live wholly in the shard
/// its id hashes to. Single-run operations route to the owning shard;
/// the batch finders group probes by shard, fan per-shard MultiSeek
/// sub-batches out over an internal pool, and merge results back in
/// the caller's original probe order — so the lineage engines see
/// byte-identical bindings at any shard count.
///
/// All reads go through the declarative SelectQuery layer, so every
/// trace access uses an index (asserted by tests) — the property the
/// paper's evaluation relies on.
///
/// Identifier boundary: the hot query surface speaks SymbolIds; the
/// string overloads are thin shims that resolve names once and delegate.
/// A string that was never recorded simply yields empty results.
///
/// Thread safety: reads are safe concurrently with ingest — each shard
/// guards its tables with a reader/writer lock, and every read first
/// waits for the rows enqueued before it started (read-your-writes per
/// shard). Maintenance ops (InsertRun, DeleteRun) are synchronous and
/// serialize against the owning shard.
class TraceStore {
 public:
  /// Wraps an existing database; creates the provenance schema if the
  /// tables are missing. The database must outlive the store.
  static Result<TraceStore> Open(storage::Database* db);
  static Result<TraceStore> Open(storage::Database* db,
                                 const TraceStoreOptions& options);

  TraceStore(TraceStore&& other) noexcept;
  TraceStore& operator=(TraceStore&& other) noexcept;
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;
  /// Drains and joins any writer threads.
  ~TraceStore();

  // --- sharding -----------------------------------------------------------

  /// Number of run shards this store routes over (≥ 1).
  size_t shard_count() const;

  /// Owning shard of a run id: RunShardHash(run_id) % shard_count().
  size_t ShardOfRun(std::string_view run_id) const;

  /// Drains every shard's ingest queue and returns the first latched
  /// ingest error (resetting none — a failed store stays failed).
  /// Under kAlways it then seals every run; under kSeal it leaves the
  /// latest run's rows as they are (unindexed until a read needs them).
  Status Flush();

  // --- compressed segment tier (DESIGN.md §13) -----------------------------

  /// The sealing policy this store was opened with.
  CompressMode compress_mode() const;

  /// Seals one run's trace rows into compressed segments, regardless of
  /// the store's mode (manual maintenance). Idempotent for an already
  /// sealed run; NotFound when the run does not exist.
  Status SealRun(const std::string& run_id);

  /// Seals every run on every shard.
  Status SealAllRuns();

  /// Approximate resident footprint of the trace tables (xform + xfer),
  /// split by tier. Hot covers the mutable tables' rows and B+-trees;
  /// sealed covers the compressed segment blobs plus their decode-ready
  /// headers. The bytes-per-row ratio between the tiers is the
  /// compression headline EXPERIMENTS.md reports.
  struct TierBytes {
    size_t hot_bytes = 0;
    size_t hot_rows = 0;
    size_t sealed_bytes = 0;
    size_t sealed_rows = 0;
  };
  TierBytes ApproxMemory() const;

  // --- identifier dictionary ----------------------------------------------

  /// Interns `name` in the owning database's symbol table. Const because
  /// the dictionaries live in the database, which the store merely
  /// points to; planners may intern from read paths without snapshotting
  /// names up front. Newly minted symbols are flushed to the WAL as
  /// definition records just before the next logged row (ids are
  /// positional, so replay re-interns them in order).
  SymbolId Intern(std::string_view name) const;

  /// Id of `name` if already interned (pure read; never grows tables).
  std::optional<SymbolId> LookupSymbol(std::string_view name) const;

  /// Resolves an id back to its string (render boundary).
  const std::string& NameOf(SymbolId id) const;

  /// Dense id of an index path, for lineage-plan cache keys.
  IndexId InternIndex(const Index& index) const;

  // --- write side (used by TraceRecorder) ---------------------------------

  /// Attaches one store-owned WAL file per shard under `base`, making
  /// capture crash-safe: each trace row is logged (and flushed) before
  /// it reaches the tables. Shard 0 logs to `base` itself (so an
  /// unsharded store writes one file at `base`), shard k to
  /// storage::ShardWalPath(base, k), and a manifest recording the shard
  /// count is written next to them when the store has more than one
  /// shard. Writer threads append to their own file without cross-shard
  /// contention.
  Status AttachWalFiles(const std::string& base);

  /// Replays a WAL produced by a (possibly crashed) capture session into
  /// `db`, creating the provenance schema when missing. Returns the
  /// number of rows applied. Symbol-definition records re-intern names
  /// in logged order, so replayed rows resolve to the same ids. If a
  /// manifest exists next to `wal_path`, every shard file it names is
  /// replayed; rows route to the shard their run hashes to under the
  /// target schema's shard count (`shards` = 0 keeps the schema already
  /// in `db`, else the manifest's count, else 1), so replaying into a
  /// differently-sharded database reshards on the fly.
  static Result<size_t> ReplayWal(const std::string& wal_path,
                                  storage::Database* db, size_t shards = 0);

  Status InsertRun(const std::string& run_id, const std::string& workflow);

  /// Removes a run and all of its trace rows (maintenance: traces
  /// accumulate over many runs and old ones eventually get pruned).
  /// Returns the number of rows removed; NotFound when the run does not
  /// exist. Dictionary entries are append-only and survive (ids must
  /// stay stable for other runs). Only the owning shard is touched: its
  /// tables are swept, and a deletion record is appended to *its* WAL
  /// only, so replay skips the deleted rows without rewriting other
  /// shards' logs.
  Result<size_t> DeleteRun(const std::string& run_id);

  /// Workflow name a run was recorded under.
  Result<std::string> RunWorkflow(const std::string& run_id) const;
  /// Interns `repr` for the run, returning its value id (dedups).
  Result<int64_t> InternValue(const std::string& run_id,
                              const std::string& repr);
  Status InsertXform(const XformRecord& rec);
  Status InsertXfer(const XferRecord& rec);

  // --- read side (used by the lineage engines) ----------------------------

  /// All runs recorded, in insertion order (merged across shards by the
  /// global run sequence number).
  Result<std::vector<std::string>> ListRuns() const;

  /// xform rows of `run`/`processor` whose OUT binding *overlaps* index
  /// `q` on `out_port`: rows with out_index equal to q, a proper prefix
  /// of q (a coarser binding that covers q), or an extension of q (finer
  /// bindings below q). This is the inversion probe of the naïve
  /// traversal (Def. 1, xform case).
  Result<std::vector<XformRecord>> FindProducing(SymbolId run,
                                                 SymbolId processor,
                                                 SymbolId out_port,
                                                 const Index& q) const;
  Result<std::vector<XformRecord>> FindProducing(const std::string& run,
                                                 const std::string& processor,
                                                 const std::string& out_port,
                                                 const Index& q) const;

  /// Same overlap semantics on the IN side: the focused trace query
  /// Q(P, X_i, p_i) of Alg. 2.
  Result<std::vector<XformRecord>> FindConsuming(SymbolId run,
                                                 SymbolId processor,
                                                 SymbolId in_port,
                                                 const Index& p) const;
  Result<std::vector<XformRecord>> FindConsuming(const std::string& run,
                                                 const std::string& processor,
                                                 const std::string& in_port,
                                                 const Index& p) const;

  /// xfer rows into (dst_proc, dst_port) overlapping `p` (naïve arc hop).
  Result<std::vector<XferRecord>> FindXfersInto(SymbolId run,
                                                SymbolId dst_proc,
                                                SymbolId dst_port,
                                                const Index& p) const;
  Result<std::vector<XferRecord>> FindXfersInto(const std::string& run,
                                                const std::string& dst_proc,
                                                const std::string& dst_port,
                                                const Index& p) const;

  /// xfer rows leaving (src_proc, src_port) overlapping `p` — the arc
  /// hop of *forward* (impact) queries.
  Result<std::vector<XferRecord>> FindXfersFrom(SymbolId run,
                                                SymbolId src_proc,
                                                SymbolId src_port,
                                                const Index& p) const;
  Result<std::vector<XferRecord>> FindXfersFrom(const std::string& run,
                                                const std::string& src_proc,
                                                const std::string& src_port,
                                                const Index& p) const;

  // --- batched read side ---------------------------------------------------
  // Each batch variant answers probes[i] exactly as its single-probe
  // counterpart would (same rows, same order). Probes are run-qualified:
  // the batch is grouped by owning shard, each shard group flattens into
  // one ExecuteMultiSelect pass over that shard's trace table (sorted
  // probes share B+-tree descents), groups spanning multiple shards run
  // concurrently on the store's fan-out pool, and the CSR-style results
  // merge back into the caller's original probe order.

  Result<std::vector<std::vector<XformRecord>>> FindProducingBatch(
      const std::vector<PortProbe>& probes) const;
  Result<std::vector<std::vector<XformRecord>>> FindConsumingBatch(
      const std::vector<PortProbe>& probes) const;
  Result<std::vector<std::vector<XferRecord>>> FindXfersIntoBatch(
      const std::vector<PortProbe>& probes) const;
  Result<std::vector<std::vector<XferRecord>>> FindXfersFromBatch(
      const std::vector<PortProbe>& probes) const;

  /// Raw per-run scans (exporters / graph builders; not query paths).
  Result<std::vector<XformRecord>> ScanXforms(const std::string& run) const;
  Result<std::vector<XferRecord>> ScanXfers(const std::string& run) const;

  /// Resolves a value id to its literal representation / parsed Value.
  Result<std::string> GetValueRepr(SymbolId run, int64_t value_id) const;
  Result<std::string> GetValueRepr(const std::string& run,
                                   int64_t value_id) const;
  Result<Value> GetValue(const std::string& run, int64_t value_id) const;

  /// Record counts for one run (full-table scan of the owning shard;
  /// used by benches and EXPERIMENTS.md, not by query paths).
  Result<TraceCounts> CountRecords(const std::string& run) const;

  /// Aggregate counts across all runs and shards.
  Result<TraceCounts> CountAllRecords() const;

  storage::Database* db();
  const storage::Database* db() const;

 private:
  struct Rep;
  struct Shard;

  explicit TraceStore(std::unique_ptr<Rep> rep);

  /// Memo-aware single overlap probe, decoded. `kind` tags the memo key
  /// space (one per public Find* flavor).
  template <typename Record>
  Result<std::vector<Record>> FindOneImpl(int kind, const char* table,
                                          const char* pair_col,
                                          const char* index_col,
                                          Record (*decode)(const storage::Row&),
                                          SymbolId run, storage::IdPair pair,
                                          const Index& idx) const;

  /// Memo-aware batched overlap probes with shard fan-out/merge;
  /// results[i] answers probes[i].
  template <typename Record>
  Result<std::vector<std::vector<Record>>> FindBatchImpl(
      int kind, const char* table, const char* pair_col, const char* index_col,
      Record (*decode)(const storage::Row&),
      const std::vector<PortProbe>& probes) const;

  std::unique_ptr<Rep> rep_;
};

}  // namespace provlin::provenance

#endif  // PROVLIN_PROVENANCE_TRACE_STORE_H_

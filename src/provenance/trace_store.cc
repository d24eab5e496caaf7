#include "provenance/trace_store.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <type_traits>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "provenance/schema.h"
#include "storage/segment.h"
#include "storage/serialize.h"
#include "values/value_parser.h"

namespace provlin::provenance {

using storage::Datum;
using storage::IdPair;
using storage::IndexPath;
using storage::Row;
using storage::Segment;
using storage::SelectQuery;
using storage::SelectResult;
using storage::Table;

namespace {

// WAL record tags: one per trace table, plus symbol definitions and run
// deletions. Symbol ids are positional, so replaying kTagSymbol records
// in log order re-mints identical ids before any row references them.
// kTagDeleteRun carries the run id string; replay sweeps the rows of
// that run inserted so far, so a deleted run stays deleted after
// recovery without rewriting the log.
constexpr uint8_t kTagRuns = 0, kTagVal = 1, kTagXform = 2, kTagXfer = 3,
                  kTagSymbol = 4, kTagDeleteRun = 5;

// Column ordinals, fixed by CreateProvenanceSchema.
namespace xform_col {
constexpr size_t kRun = 0, kEvent = 1, kIn = 2, kInIndex = 3, kInValue = 4,
                 kOut = 5, kOutIndex = 6, kOutValue = 7;
}  // namespace xform_col
namespace xfer_col {
constexpr size_t kRun = 0, kSrc = 1, kSrcIndex = 2, kDst = 3, kDstIndex = 4,
                 kValue = 5;
}  // namespace xfer_col

SymbolId SymOf(const Datum& d) {
  return static_cast<SymbolId>(static_cast<uint64_t>(d.AsInt()));
}

Datum SymDatum(SymbolId id) { return Datum(static_cast<int64_t>(id)); }

XformRecord DecodeXform(const Row& row) {
  XformRecord rec;
  rec.run = SymOf(row[xform_col::kRun]);
  rec.event_id = row[xform_col::kEvent].AsInt();
  rec.has_in = !row[xform_col::kIn].is_null();
  if (rec.has_in) {
    IdPair in = row[xform_col::kIn].AsIdPair();
    rec.processor = in.first;
    rec.in_port = in.second;
    rec.in_index = Index(row[xform_col::kInIndex].AsIndexPath());
    rec.in_value = row[xform_col::kInValue].AsInt();
  }
  rec.has_out = !row[xform_col::kOut].is_null();
  if (rec.has_out) {
    IdPair out = row[xform_col::kOut].AsIdPair();
    rec.processor = out.first;
    rec.out_port = out.second;
    rec.out_index = Index(row[xform_col::kOutIndex].AsIndexPath());
    rec.out_value = row[xform_col::kOutValue].AsInt();
  }
  return rec;
}

// Memo key spaces, one per public Find* flavor.
constexpr int kKindProducing = 0, kKindConsuming = 1, kKindXferInto = 2,
              kKindXferFrom = 3;

/// Content-comparing row-pointer order, for deduping overlap-probe rows
/// without copying them (two rids with byte-identical rows still dedup,
/// matching the historical std::set<Row> behaviour).
struct RowPtrLess {
  bool operator()(const Row* a, const Row* b) const { return *a < *b; }
};

/// Appends the overlap-probe query sequence for one (pair, idx) probe:
/// one prefix scan for the empty index, else |idx|+1 point probes
/// (coarser covering bindings) plus one path-prefix range probe (finer
/// bindings at or below idx).
void AppendOverlapQueries(SymbolId run, const char* pair_col, IdPair pair,
                          const char* index_col, const Index& idx,
                          std::vector<SelectQuery>* queries) {
  auto base = [&]() {
    SelectQuery q;
    q.equals.push_back({"run", SymDatum(run)});
    q.equals.push_back({pair_col, Datum(pair)});
    return q;
  };
  if (idx.empty()) {
    // The whole-value query: one range probe (an index-prefix scan over
    // the two equality columns) enumerates every binding on the port.
    queries->push_back(base());
    return;
  }
  for (size_t k = 0; k <= idx.length(); ++k) {
    SelectQuery q = base();
    q.equals.push_back({index_col, Datum(IndexPath(idx.Prefix(k).parts()))});
    queries->push_back(std::move(q));
  }
  {
    SelectQuery q = base();
    q.path_prefix = SelectQuery::PathPrefix{index_col, idx.parts()};
    queries->push_back(std::move(q));
  }
}

thread_local ProbeMemo* g_active_probe_memo = nullptr;
thread_local ProbeBreakdown* g_active_probe_breakdown = nullptr;

/// Registry mirrors of the per-memo hit/lookup atomics: process-wide
/// totals across all memos, exposed as provenance/memo_* in `stats`.
struct MemoMetrics {
  common::metrics::Counter* hits =
      common::metrics::GetCounter("provenance/memo_hits");
  common::metrics::Counter* lookups =
      common::metrics::GetCounter("provenance/memo_lookups");
};

MemoMetrics& MemoMx() {
  static MemoMetrics m;
  return m;
}

XferRecord DecodeXfer(const Row& row) {
  XferRecord rec;
  rec.run = SymOf(row[xfer_col::kRun]);
  IdPair src = row[xfer_col::kSrc].AsIdPair();
  rec.src_proc = src.first;
  rec.src_port = src.second;
  rec.src_index = Index(row[xfer_col::kSrcIndex].AsIndexPath());
  IdPair dst = row[xfer_col::kDst].AsIdPair();
  rec.dst_proc = dst.first;
  rec.dst_port = dst.second;
  rec.dst_index = Index(row[xfer_col::kDstIndex].AsIndexPath());
  rec.value_id = row[xfer_col::kValue].AsInt();
  return rec;
}

/// Runs an equality+overlap probe against one shard's `t` through
/// independent single ExecuteSelect calls: equality on (run,
/// pair-column), point probes for q and its proper prefixes, and one
/// path-prefix range probe for strict extensions. Emits each distinct
/// matching row once, in discovery order. Rows are borrowed from the
/// table (zero-copy) — consumed before the caller releases the shard's
/// reader lock.
Status OverlapProbe(const Table* t, SymbolId run, const char* pair_col,
                    IdPair pair, const char* index_col, const Index& idx,
                    const std::function<void(const Row&)>& emit) {
  std::vector<SelectQuery> queries;
  AppendOverlapQueries(run, pair_col, pair, index_col, idx, &queries);
  storage::SelectOptions zero_copy;
  zero_copy.zero_copy = true;
  std::set<const Row*, RowPtrLess> seen;
  for (const SelectQuery& q : queries) {
    PROVLIN_ASSIGN_OR_RETURN(SelectResult r,
                             storage::ExecuteSelect(*t, q, zero_copy));
    for (const Row* row : r.row_ptrs) {
      if (seen.insert(row).second) emit(*row);
    }
  }
  return Status::OK();
}

/// Batched overlap probes against one shard: the whole sub-batch's
/// queries flatten into one ExecuteMultiSelect pass. emit(i, row) fires
/// once per distinct row matching probes[i], in the same order
/// OverlapProbe discovers them. Every probe must belong to this shard.
Status OverlapProbeBatch(
    const Table* t, const char* pair_col, const char* index_col,
    const std::vector<PortProbe>& probes,
    const std::function<void(size_t, const Row&)>& emit) {
  std::vector<SelectQuery> queries;
  std::vector<size_t> owner;  // flattened query ordinal -> probe ordinal
  for (size_t i = 0; i < probes.size(); ++i) {
    AppendOverlapQueries(probes[i].run, pair_col,
                         IdPair{probes[i].processor, probes[i].port}, index_col,
                         probes[i].index, &queries);
    owner.resize(queries.size(), i);
  }
  storage::SelectOptions zero_copy;
  zero_copy.zero_copy = true;
  PROVLIN_ASSIGN_OR_RETURN(std::vector<SelectResult> results,
                           storage::ExecuteMultiSelect(*t, queries, zero_copy));
  // Per-probe content dedup in flattened query order — the same
  // discovery order the single-probe path produces.
  std::vector<std::set<const Row*, RowPtrLess>> seen(probes.size());
  for (size_t qi = 0; qi < results.size(); ++qi) {
    size_t i = owner[qi];
    for (const Row* row : results[qi].row_ptrs) {
      if (seen[i].insert(row).second) emit(i, *row);
    }
  }
  return Status::OK();
}

// --- sealed segment tier (DESIGN.md §13) -----------------------------------

CompressMode ResolveCompressMode(const TraceStoreOptions& options) {
  if (options.compress.has_value()) return *options.compress;
  if (const char* env = std::getenv("PROVLIN_TEST_COMPRESS");
      env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "seal") == 0) return CompressMode::kSeal;
    if (std::strcmp(env, "always") == 0) return CompressMode::kAlways;
  }
  return CompressMode::kOff;
}

/// Blob catalog keys: "segment/<shard table name>/<run id>". Table
/// names never contain '/', so the table parses back out as everything
/// up to the first '/' after the prefix — run ids may contain anything.
constexpr char kSegmentBlobPrefix[] = "segment/";

std::string SegmentBlobKey(const char* base, size_t shard,
                           const std::string& run_name) {
  return kSegmentBlobPrefix + ShardTableName(base, shard) + "/" + run_name;
}

/// The segment view answering probes against `pair_col` ("out"/"src"
/// sides share view 0, "in"/"dst" view 1 — Segment's layout contract).
size_t ViewForPairCol(const char* pair_col) {
  return std::strcmp(pair_col, "out") == 0 || std::strcmp(pair_col, "src") == 0
             ? Segment::kViewOut
             : Segment::kViewIn;
}

// Twins of the planner's file-local path-prefix bound helpers
// (storage/query.cc): a prefix probe is boundable iff bumping its last
// component cannot overflow.
bool SealedPathBoundable(const IndexPath& p) {
  return !p.empty() && p.back() != std::numeric_limits<int32_t>::max();
}

IndexPath SealedPathSuccessor(IndexPath p) {
  ++p.back();
  return p;
}

/// Sealed twin of AppendOverlapQueries: the same probe sequence phrased
/// as per-view bounds, so both tiers examine the same candidate entries
/// and their counters agree. The final range probe carries the residual
/// filter the planner applies row-side: entries within [idx, succ(idx)]
/// all count as examined, only extensions of idx are emitted.
void AppendOverlapViewProbes(IdPair pair, const Index& idx,
                             std::vector<Segment::ViewProbe>* probes) {
  const uint64_t packed = pair.Packed();
  if (idx.empty()) {
    Segment::ViewProbe p;
    p.pair = packed;
    probes->push_back(std::move(p));
    return;
  }
  for (size_t k = 0; k <= idx.length(); ++k) {
    Segment::ViewProbe p;
    p.pair = packed;
    p.has_lo = p.has_hi = true;
    p.lo = IndexPath(idx.Prefix(k).parts());
    p.hi = p.lo;
    probes->push_back(std::move(p));
  }
  Segment::ViewProbe p;
  p.pair = packed;
  p.has_residual = true;
  p.residual = IndexPath(idx.parts());
  if (SealedPathBoundable(p.residual)) {
    p.has_lo = p.has_hi = true;
    p.lo = p.residual;
    p.hi = SealedPathSuccessor(p.residual);
  }
  probes->push_back(std::move(p));
}

/// Sealed twin of OverlapProbe: runs one (pair, idx) overlap probe
/// against a view of the run's segment. Emits each distinct matching
/// row once, in the same discovery order as the B+tree path. Rows point
/// into `scratch` and stay valid for its lifetime. `queries` tallies
/// the logical probes issued (the index_probes equivalent).
Status SealedOverlapProbe(const Segment& seg, size_t view, IdPair pair,
                          const Index& idx, Segment::Scratch* scratch,
                          Segment::ProbeCounts* counts, size_t* queries,
                          const std::function<void(const Row&)>& emit) {
  std::vector<Segment::ViewProbe> probes;
  AppendOverlapViewProbes(pair, idx, &probes);
  *queries += probes.size();
  std::set<const Row*, RowPtrLess> seen;
  for (const Segment::ViewProbe& p : probes) {
    PROVLIN_RETURN_IF_ERROR(
        seg.ProbeView(view, p, scratch, counts, [&](uint64_t, const Row& row) {
          if (seen.insert(&row).second) emit(row);
        }));
  }
  return Status::OK();
}

/// Global counter surfaces for sealed probes: segment-specific physical
/// costs under storage/segment_*, plus mirrors onto the storage/*
/// names the B+tree path bumps so cross-tier totals stay comparable.
struct SealedProbeMetrics {
  common::metrics::Counter* probes =
      common::metrics::GetCounter("storage/segment_probes");
  common::metrics::Counter* entries =
      common::metrics::GetCounter("storage/segment_entries_examined");
  common::metrics::Counter* searches =
      common::metrics::GetCounter("storage/segment_searches");
  common::metrics::Counter* blocks =
      common::metrics::GetCounter("storage/segment_block_decodes");
  common::metrics::Counter* rows_materialized =
      common::metrics::GetCounter("storage/segment_rows_materialized");
  common::metrics::Counter* view_blocks =
      common::metrics::GetCounter("storage/segment_view_blocks_scanned");
  common::metrics::Counter* index_probes =
      common::metrics::GetCounter("storage/index_probes");
  common::metrics::Counter* rows_examined =
      common::metrics::GetCounter("storage/rows_examined");
  common::metrics::Counter* descents =
      common::metrics::GetCounter("storage/descents");
  common::metrics::Counter* batched =
      common::metrics::GetCounter("storage/batched_probes");
};

SealedProbeMetrics& SegMx() {
  static SealedProbeMetrics m;
  return m;
}

/// Credits a finished sealed probe run to the same surfaces the hot
/// path uses: the calling thread's ThreadStats (harvested by the batch
/// fan-out's delta accounting) and the global storage counters.
/// entries_examined maps to rows_examined, searches to descents.
void CreditSealedProbe(size_t queries, const Segment::ProbeCounts& counts,
                       bool batched) {
  storage::ThreadStats& ts = storage::ThisThreadStats();
  ts.index_probes += queries;
  ts.rows_examined += counts.entries_examined;
  ts.descents += counts.searches;
  if (batched) ts.batched_probes += queries;
  SealedProbeMetrics& mx = SegMx();
  mx.probes->Add(queries);
  mx.entries->Add(counts.entries_examined);
  mx.searches->Add(counts.searches);
  mx.blocks->Add(counts.blocks_decoded);
  mx.rows_materialized->Add(counts.rows_materialized);
  mx.view_blocks->Add(counts.view_blocks_scanned);
  mx.index_probes->Add(queries);
  mx.rows_examined->Add(counts.entries_examined);
  mx.descents->Add(counts.searches);
  if (batched) mx.batched->Add(queries);
}

/// Decodes every segment blob back into its hot table and drops the
/// blob. The escape hatch for CompressMode::kOff, and the
/// normalization step before physical-layout operations (resharding,
/// WAL replay) that walk tables directly and must see every row.
Status UnsealAllBlobs(storage::Database* db) {
  for (const std::string& key : db->BlobKeys()) {
    if (key.rfind(kSegmentBlobPrefix, 0) != 0) continue;
    std::string table_name = key.substr(std::strlen(kSegmentBlobPrefix));
    const size_t slash = table_name.find('/');
    if (slash == std::string::npos) {
      return Status::Corruption("bad segment blob key '" + key + "'");
    }
    table_name.resize(slash);
    PROVLIN_ASSIGN_OR_RETURN(Table * table, db->GetTable(table_name));
    PROVLIN_ASSIGN_OR_RETURN(Segment seg, Segment::FromBytes(db->GetBlob(key)));
    PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows, seg.DecodeAllRows());
    for (Row& row : rows) {
      PROVLIN_RETURN_IF_ERROR(table->Insert(row).status());
    }
    db->DropBlob(key);
  }
  return Status::OK();
}

/// Completion latch for batch fan-out: the caller blocks until every
/// per-shard task has signalled.
struct FanLatch {
  common::Mutex mu{common::LockRank::kStoreFanLatch};
  common::CondVar cv;
  size_t pending GUARDED_BY(mu) = 0;
};

/// Per-shard ingest rate cap: an unbounded queue would let a fast
/// producer outrun the writer without limit.
constexpr size_t kMaxQueuedRows = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// Shard: one partition's tables, WAL, and ingest machinery.
// Lock order within a shard: ingest_mu before data_mu, never the
// reverse; the shard's WAL has no lock of its own and is written under
// data_mu (DESIGN.md §11 extends the §10 lock table).
// ---------------------------------------------------------------------------

struct TraceStore::Shard {
  /// One pending ingest row; the WAL tag doubles as the table selector.
  struct Pending {
    uint8_t tag = 0;
    Row row;
  };

  /// One sealable trace table: its segment kind, its blob-key base, the
  /// index whose (run) prefix enumerates a run's rows, and its sealed
  /// segments.
  struct TraceSide {
    Table* table;
    Segment::Kind kind;
    const char* base;
    const char* run_index;
    std::map<SymbolId, std::shared_ptr<const Segment>>* sealed;
  };

  size_t id = 0;
  // Physical tables of this shard, cached at Open (stable thereafter).
  Table* runs = nullptr;
  Table* val = nullptr;
  Table* xform = nullptr;
  Table* xfer = nullptr;

  // --- enqueue side -------------------------------------------------------
  common::Mutex ingest_mu{common::LockRank::kShardIngest};
  common::CondVar work_cv;     // writer thread waits for rows / stop
  common::CondVar drained_cv;  // readers wait for applied to catch up
  common::CondVar space_cv;    // producers wait for queue headroom
  std::deque<Pending> queue GUARDED_BY(ingest_mu);
  uint64_t enqueued GUARDED_BY(ingest_mu) = 0;
  uint64_t applied GUARDED_BY(ingest_mu) = 0;
  bool stop GUARDED_BY(ingest_mu) = false;
  /// First apply error; the shard refuses further ingest once set.
  Status ingest_status GUARDED_BY(ingest_mu);
  /// Write-path value interning: (run, repr) -> id, ids unique per run.
  std::map<std::pair<SymbolId, std::string>, int64_t> intern_cache
      GUARDED_BY(ingest_mu);
  std::map<SymbolId, uint64_t> next_value_id GUARDED_BY(ingest_mu);

  // --- apply side ---------------------------------------------------------
  /// Readers hold the shared side across a whole probe (zero-copy rows
  /// must not move underneath them); the writer thread / synchronous
  /// writers hold the exclusive side per applied batch.
  common::SharedMutex data_mu{common::LockRank::kShardData};
  /// Per-shard WAL (AttachWalFiles); shard 0 owns the base file.
  std::optional<storage::WriteAheadLog> owned_wal GUARDED_BY(data_mu);
  /// Symbols flushed to owned_wal as definition records; the tail
  /// [wal_syms_logged, symbols.size()) is flushed before each row.
  size_t wal_syms_logged GUARDED_BY(data_mu) = 0;

  // --- sealed segment tier (DESIGN.md §13) --------------------------------
  /// Sealed runs' compressed segments, keyed by run symbol. A run is
  /// wholly hot or wholly sealed: sealing covers both trace tables at
  /// once, a side with no rows simply has no entry. Writing a trace row
  /// to a sealed run unseals it first (Rep::Apply).
  std::map<SymbolId, std::shared_ptr<const Segment>> sealed_xform
      GUARDED_BY(data_mu);
  std::map<SymbolId, std::shared_ptr<const Segment>> sealed_xfer
      GUARDED_BY(data_mu);
  /// Under a sealing mode, the one run whose trace rows Apply appends
  /// unindexed (Table::Append): a run with no indexed hot trace rows.
  /// Every pending row of xform/xfer is the tail run's; kNoSymbol when
  /// there is no tail run.
  SymbolId tail_run GUARDED_BY(data_mu) = common::kNoSymbol;

  // Per-shard observability (satellite: surfaced by `stats`).
  common::metrics::Counter* rows_ctr = nullptr;
  common::metrics::Counter* probes_ctr = nullptr;
  /// Segments sealed over the shard's lifetime (monotonic)…
  common::metrics::Counter* segments_ctr = nullptr;
  /// …and the current tier split: rows/bytes resident in sealed
  /// segments vs rows still in the mutable tables (all four), so
  /// segment_rows + hot_rows tracks rows_ingested absent deletions.
  common::metrics::Gauge* segment_rows_g = nullptr;
  common::metrics::Gauge* segment_bytes_g = nullptr;
  common::metrics::Gauge* hot_rows_g = nullptr;

  std::thread writer;  // running iff async ingest is on

  Table* TableFor(uint8_t tag) const {
    switch (tag) {
      case kTagRuns:
        return runs;
      case kTagVal:
        return val;
      case kTagXform:
        return xform;
      default:
        return xfer;
    }
  }

  const Table* ProbeTableFor(const char* base) const {
    return std::strcmp(base, tables::kXform) == 0 ? xform : xfer;
  }

  std::array<TraceSide, 2> TraceSides() REQUIRES(data_mu) {
    return {{{xform, Segment::Kind::kXform, tables::kXform,
              indexes::kXformEvent, &sealed_xform},
             {xfer, Segment::Kind::kXfer, tables::kXfer, indexes::kXferDst,
              &sealed_xfer}}};
  }

  bool IsSealed(SymbolId run) const REQUIRES_SHARED(data_mu) {
    return sealed_xform.count(run) > 0 || sealed_xfer.count(run) > 0;
  }

  /// Indexes the tail run's pending rows; the run then has indexed hot
  /// rows, so it stops being the tail.
  void IndexTail() REQUIRES(data_mu) {
    xform->IndexPending();
    xfer->IndexPending();
    tail_run = common::kNoSymbol;
  }

  /// Whether `run` has indexed hot trace rows: one prefix probe per
  /// trace table. Requires no rows pending.
  Result<bool> HasIndexedRows(SymbolId run) const REQUIRES_SHARED(data_mu) {
    const storage::Key key{SymDatum(run)};
    PROVLIN_ASSIGN_OR_RETURN(bool in_xform,
                             xform->IndexHasPrefix(indexes::kXformEvent, key));
    if (in_xform) return true;
    return xfer->IndexHasPrefix(indexes::kXferDst, key);
  }

  /// The sealed segment answering probes against `base` for `run`, or
  /// nullptr when the run is hot (or absent) — the tier routing test.
  const Segment* SealedSegFor(const char* base, SymbolId run) const
      REQUIRES_SHARED(data_mu) {
    const auto& sealed =
        std::strcmp(base, tables::kXform) == 0 ? sealed_xform : sealed_xfer;
    auto it = sealed.find(run);
    return it == sealed.end() ? nullptr : it->second.get();
  }
};

// ---------------------------------------------------------------------------
// Rep: the routing facade's shared state.
// ---------------------------------------------------------------------------

struct TraceStore::Rep {
  storage::Database* db = nullptr;
  size_t nshards = 1;
  bool async = false;
  CompressMode compress = CompressMode::kOff;
  std::vector<std::unique_ptr<Shard>> shards;
  /// Fan-out pool for batches spanning shards (created iff nshards > 1).
  std::unique_ptr<common::ThreadPool> fanout;

  /// Run sequence numbers are global, not per shard, so ListRuns can
  /// merge shards back into insertion order.
  common::Mutex run_mu{common::LockRank::kStoreRunSeq};
  int64_t next_run_seq GUARDED_BY(run_mu) = 0;

  common::metrics::Counter* rows_ingested = nullptr;

  ~Rep() {
    for (auto& s : shards) {
      if (!s->writer.joinable()) continue;
      {
        common::MutexLock lock(s->ingest_mu);
        s->stop = true;
        s->work_cv.NotifyAll();
      }
      s->writer.join();
    }
  }

  size_t ShardIdOfRun(std::string_view run_id) const {
    return nshards == 1 ? 0 : RunShardHash(run_id) % nshards;
  }

  size_t ShardIdOfSym(SymbolId run) const {
    if (nshards == 1) return 0;
    if (run == common::kNoSymbol || run >= db->symbols().size()) return 0;
    return ShardIdOfRun(db->symbols().NameOf(run));
  }

  Shard* ShardForRun(std::string_view run_id) {
    return shards[ShardIdOfRun(run_id)].get();
  }

  Shard* ShardForSym(SymbolId run) { return shards[ShardIdOfSym(run)].get(); }

  /// Builds one side's segment for `run` from its rows (in insertion
  /// order) and parks it: the blob catalog holds the bytes (so Save
  /// persists them) and probes route to it. The caller takes the rows
  /// out of the hot tier. No rows, no segment.
  Status ParkSegmentLocked(Shard* s, const Shard::TraceSide& side,
                           SymbolId run, const std::string& run_name,
                           const std::vector<Row>& rows) REQUIRES(s->data_mu) {
    if (rows.empty()) return Status::OK();
    PROVLIN_ASSIGN_OR_RETURN(
        Segment seg, Segment::Build(side.kind, static_cast<uint64_t>(run), rows));
    auto shared = std::make_shared<const Segment>(std::move(seg));
    db->PutBlob(SegmentBlobKey(side.base, s->id, run_name),
                shared->shared_bytes());
    s->segment_rows_g->Add(static_cast<int64_t>(shared->num_rows()));
    s->segment_bytes_g->Add(static_cast<int64_t>(shared->bytes().size()));
    s->hot_rows_g->Add(-static_cast<int64_t>(shared->num_rows()));
    s->segments_ctr->Increment();
    side.sealed->emplace(run, std::move(shared));
    return Status::OK();
  }

  /// Seals the shard's tail run from the rows Table::TakeTail moves out
  /// of the heap: no scan, no copy, no index erase, no tombstone. The
  /// rows come out in insertion order, so the segments are byte-equal to
  /// sealing the same run from indexed rows.
  Status SealTailLocked(Shard* s) REQUIRES(s->data_mu) {
    const SymbolId run = s->tail_run;
    if (run == common::kNoSymbol) return Status::OK();
    s->tail_run = common::kNoSymbol;
    const std::string& run_name = db->symbols().NameOf(run);
    for (const Shard::TraceSide& side : s->TraceSides()) {
      PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows,
                               side.table->TakeTail(side.table->pending_begin()));
      PROVLIN_RETURN_IF_ERROR(ParkSegmentLocked(s, side, run, run_name, rows));
    }
    return Status::OK();
  }

  /// Seals one run's trace rows into compressed segments. The tail run
  /// seals from the heap tail. Any other hot run's rows are indexed:
  /// they are found by a (run) prefix range, copied in rid order (the
  /// order the tail path and a heap scan meet them in), parked as
  /// segments and deleted from the hot tier. Idempotent; a run with no
  /// trace rows seals to nothing.
  Status SealRunLocked(Shard* s, SymbolId run_sym, const std::string& run_name)
      REQUIRES(s->data_mu) {
    if (s->IsSealed(run_sym)) return Status::OK();
    if (run_sym == s->tail_run) return SealTailLocked(s);
    // The range reads below refuse while the tail's rows are pending.
    s->IndexTail();
    const storage::Key run_key{SymDatum(run_sym)};
    for (const Shard::TraceSide& side : s->TraceSides()) {
      PROVLIN_ASSIGN_OR_RETURN(
          std::vector<uint64_t> rids,
          side.table->IndexPrefixLookup(side.run_index, run_key));
      std::sort(rids.begin(), rids.end());
      std::vector<Row> rows;
      rows.reserve(rids.size());
      for (uint64_t rid : rids) rows.push_back(*side.table->PeekRow(rid));
      PROVLIN_RETURN_IF_ERROR(
          ParkSegmentLocked(s, side, run_sym, run_name, rows));
      for (uint64_t rid : rids) {
        PROVLIN_RETURN_IF_ERROR(side.table->Delete(rid));
      }
    }
    return Status::OK();
  }

  /// Reverses SealRunLocked: decode the run's segments back into the
  /// hot tables (indexed) and drop the blobs. No WAL append and no
  /// ingest counters — the rows were logged and counted when first
  /// inserted.
  Status UnsealRunLocked(Shard* s, SymbolId run_sym) REQUIRES(s->data_mu) {
    const std::string& run_name = db->symbols().NameOf(run_sym);
    for (const Shard::TraceSide& side : s->TraceSides()) {
      auto it = side.sealed->find(run_sym);
      if (it == side.sealed->end()) continue;
      const Segment& seg = *it->second;
      PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows, seg.DecodeAllRows());
      for (const Row& row : rows) {
        PROVLIN_RETURN_IF_ERROR(side.table->Insert(row).status());
      }
      s->segment_rows_g->Add(-static_cast<int64_t>(seg.num_rows()));
      s->segment_bytes_g->Add(-static_cast<int64_t>(seg.bytes().size()));
      s->hot_rows_g->Add(static_cast<int64_t>(seg.num_rows()));
      db->DropBlob(SegmentBlobKey(side.base, s->id, run_name));
      side.sealed->erase(it);
    }
    return Status::OK();
  }

  /// Seals every run on `s` except `skip_run` (nullptr = seal all). A
  /// recorded tail run seals from the heap tail. The sweep of the runs
  /// table (a symbol lookup and a string copy per run) runs only while
  /// indexed hot trace rows are left to seal. Runs that never minted a
  /// symbol have no trace rows and are skipped.
  Status SealShardRunsLocked(Shard* s, const std::string* skip_run)
      REQUIRES(s->data_mu) {
    if (s->tail_run != common::kNoSymbol) {
      const std::string& tail = db->symbols().NameOf(s->tail_run);
      if (skip_run == nullptr || tail != *skip_run) {
        PROVLIN_ASSIGN_OR_RETURN(
            std::vector<uint64_t> recorded,
            s->runs->IndexLookup(indexes::kRunsById, {Datum(tail)}));
        if (!recorded.empty()) PROVLIN_RETURN_IF_ERROR(SealTailLocked(s));
      }
    }
    if (s->xform->num_indexed_rows() == 0 && s->xfer->num_indexed_rows() == 0) {
      return Status::OK();
    }
    std::vector<std::pair<SymbolId, std::string>> to_seal;
    s->runs->ForEachLiveRow([&](uint64_t, const Row& row) {
      const std::string& run_name = row[0].AsString();
      if (skip_run != nullptr && run_name == *skip_run) return;
      std::optional<SymbolId> sym = db->symbols().Lookup(run_name);
      if (sym.has_value()) to_seal.emplace_back(*sym, run_name);
    });
    for (const auto& [sym, name] : to_seal) {
      PROVLIN_RETURN_IF_ERROR(SealRunLocked(s, sym, name));
    }
    return Status::OK();
  }

  /// A trace row of `run` arrived while `run` is not the shard's tail
  /// run: the old tail's rows get indexed (it stops being the tail), a
  /// sealed `run` is pulled back into the hot tier first (late writes:
  /// out-of-order capture, replayed rows), and under a sealing mode
  /// `run` becomes the new tail when it has no indexed hot rows.
  Status RetargetTailLocked(Shard* s, SymbolId run) REQUIRES(s->data_mu) {
    s->IndexTail();
    if (s->IsSealed(run)) return UnsealRunLocked(s, run);
    if (compress == CompressMode::kOff) return Status::OK();
    PROVLIN_ASSIGN_OR_RETURN(bool indexed, s->HasIndexedRows(run));
    if (!indexed) s->tail_run = run;
    return Status::OK();
  }

  /// WAL append + table write of one pending row, on `s`. The tail
  /// run's trace rows are appended unindexed; every other row is
  /// inserted.
  Status Apply(Shard* s, Shard::Pending&& p) REQUIRES(s->data_mu) {
    if (s->owned_wal.has_value()) {
      const common::SymbolTable& symbols = db->symbols();
      while (s->wal_syms_logged < symbols.size()) {
        storage::BinaryWriter w;
        w.WriteU8(kTagSymbol);
        w.WriteString(
            symbols.NameOf(static_cast<SymbolId>(s->wal_syms_logged)));
        PROVLIN_RETURN_IF_ERROR(s->owned_wal->Append(w.buffer()));
        ++s->wal_syms_logged;
      }
      storage::BinaryWriter w;
      w.WriteU8(p.tag);
      w.WriteRow(p.row);
      PROVLIN_RETURN_IF_ERROR(s->owned_wal->Append(w.buffer()));
    }
    Table* table = s->TableFor(p.tag);
    bool append = false;
    if (p.tag == kTagXform || p.tag == kTagXfer) {
      const SymbolId run = SymOf(p.row[0]);
      if (run != s->tail_run) {
        PROVLIN_RETURN_IF_ERROR(RetargetTailLocked(s, run));
      }
      append = run == s->tail_run;
    }
    if (append) {
      PROVLIN_RETURN_IF_ERROR(table->Append(std::move(p.row)).status());
    } else {
      PROVLIN_RETURN_IF_ERROR(table->Insert(p.row).status());
    }
    s->rows_ctr->Increment();
    s->hot_rows_g->Add(1);
    rows_ingested->Increment();
    return Status::OK();
  }

  /// Routes one write: enqueue for the shard's writer thread (async) or
  /// apply inline under the shard's exclusive lock (sync).
  Status EnqueueOrApply(Shard* s, uint8_t tag, Row row) {
    if (async) {
      common::MutexLock lock(s->ingest_mu);
      PROVLIN_RETURN_IF_ERROR(s->ingest_status);
      while (s->queue.size() >= kMaxQueuedRows && !s->stop) {
        s->space_cv.Wait(s->ingest_mu);
      }
      PROVLIN_RETURN_IF_ERROR(s->ingest_status);
      s->queue.push_back({tag, std::move(row)});
      ++s->enqueued;
      s->work_cv.NotifyOne();
      return Status::OK();
    }
    common::WriterLock data(s->data_mu);
    return Apply(s, {tag, std::move(row)});
  }

  /// Ingest barrier: waits until everything enqueued on `s` before
  /// this call has been applied, then reports the shard's latched
  /// status.
  Status Drain(Shard* s) const {
    if (!async) return Status::OK();
    common::MutexLock lock(s->ingest_mu);
    const uint64_t target = s->enqueued;
    while (s->applied < target) s->drained_cv.Wait(s->ingest_mu);
    return s->ingest_status;
  }

  /// The read barrier (DESIGN.md §13): drains the shard's async ingest,
  /// then holds its reader lock with no trace rows pending. While a
  /// sealing-mode capture has left rows pending, it trades the reader
  /// lock for the writer lock, indexes them, and takes the reader lock
  /// again; so a read never probes an index that refuses it, and never
  /// fails because a writer appended after it looked. Serving, which
  /// never appends, pays one branch.
  class SCOPED_CAPABILITY ReadLock {
   public:
    ReadLock(const Rep& rep, Shard* s) ACQUIRE_SHARED(s->data_mu)
        : s_(s), status_(rep.Drain(s)) {
      s->data_mu.LockShared();
      while (s->xform->has_pending() || s->xfer->has_pending()) {
        s->data_mu.UnlockShared();
        {
          common::WriterLock data(s->data_mu);
          s->IndexTail();
        }
        s->data_mu.LockShared();
      }
    }
    ~ReadLock() RELEASE() { s_->data_mu.UnlockShared(); }
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;

    /// The shard's latched ingest status, as Drain reports it.
    const Status& status() const { return status_; }

   private:
    Shard* s_;
    Status status_;
  };

  /// Dedicated writer: drains the queue in batches, holding the shard's
  /// exclusive data lock only while applying.
  void WriterLoop(Shard* s) {
    for (;;) {
      std::deque<Shard::Pending> batch;
      {
        common::MutexLock lock(s->ingest_mu);
        while (s->queue.empty() && !s->stop) s->work_cv.Wait(s->ingest_mu);
        if (s->queue.empty() && s->stop) return;
        batch.swap(s->queue);
        s->space_cv.NotifyAll();
      }
      Status st = Status::OK();
      {
        common::WriterLock data(s->data_mu);
        for (Shard::Pending& p : batch) {
          if (st.ok()) st = Apply(s, std::move(p));
        }
      }
      {
        common::MutexLock lock(s->ingest_mu);
        s->applied += batch.size();
        if (!st.ok() && s->ingest_status.ok()) s->ingest_status = st;
        s->drained_cv.NotifyAll();
      }
    }
  }
};

namespace {

/// Row migration between shard layouts: moves every row to the shard
/// its run hashes to under `to` shards, then drops emptied surplus
/// tables and rewrites shard_meta. Runs single-threaded on a store
/// that is not yet (or no longer) serving.
Status ReshardDatabase(storage::Database* db, size_t from, size_t to) {
  for (size_t k = 0; k < to; ++k) {
    PROVLIN_RETURN_IF_ERROR(EnsureShardTables(db, k));
  }
  const char* bases[] = {tables::kRuns, tables::kVal, tables::kXform,
                         tables::kXfer};
  const size_t all = from > to ? from : to;
  for (size_t s = 0; s < all; ++s) {
    for (const char* base : bases) {
      auto src_r = db->GetTable(ShardTableName(base, s));
      if (!src_r.ok()) continue;
      Table* src = src_r.value();
      std::vector<std::pair<uint64_t, size_t>> moves;  // rid -> target shard
      for (uint64_t rid : src->FullScan()) {
        PROVLIN_ASSIGN_OR_RETURN(Row row, src->Get(rid));
        const std::string& run_name =
            std::strcmp(base, tables::kRuns) == 0
                ? row[0].AsString()
                : db->symbols().NameOf(SymOf(row[0]));
        size_t target = RunShardHash(run_name) % to;
        if (target != s) moves.push_back({rid, target});
      }
      for (const auto& [rid, target] : moves) {
        PROVLIN_ASSIGN_OR_RETURN(Row row, src->Get(rid));
        PROVLIN_ASSIGN_OR_RETURN(Table * dst,
                                 db->GetTable(ShardTableName(base, target)));
        PROVLIN_RETURN_IF_ERROR(dst->Insert(row).status());
        PROVLIN_RETURN_IF_ERROR(src->Delete(rid));
      }
    }
  }
  for (size_t s = to; s < from; ++s) {
    for (const char* base : bases) {
      PROVLIN_RETURN_IF_ERROR(db->DropTable(ShardTableName(base, s)));
    }
  }
  return WriteShardMeta(db, to);
}

/// Deletes every row of `run_id` from one shard's tables (replay-side
/// twin of TraceStore::DeleteRun's sweep).
Result<size_t> SweepRunRows(storage::Database* db, size_t shard,
                            const std::string& run_id) {
  size_t removed = 0;
  PROVLIN_ASSIGN_OR_RETURN(
      Table * runs, db->GetTable(ShardTableName(tables::kRuns, shard)));
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> run_rows,
      runs->IndexLookup(indexes::kRunsById, {Datum(run_id)}));
  for (uint64_t rid : run_rows) {
    PROVLIN_RETURN_IF_ERROR(runs->Delete(rid));
    ++removed;
  }
  std::optional<SymbolId> run_sym = db->symbols().Lookup(run_id);
  if (run_sym.has_value()) {
    Datum run_datum = SymDatum(*run_sym);
    for (const char* base : {tables::kVal, tables::kXform, tables::kXfer}) {
      PROVLIN_ASSIGN_OR_RETURN(Table * table,
                               db->GetTable(ShardTableName(base, shard)));
      std::vector<uint64_t> to_delete;
      for (uint64_t rid : table->FullScan()) {
        PROVLIN_ASSIGN_OR_RETURN(Row row, table->Get(rid));
        if (row[0] == run_datum) to_delete.push_back(rid);
      }
      for (uint64_t rid : to_delete) {
        PROVLIN_RETURN_IF_ERROR(table->Delete(rid));
        ++removed;
      }
    }
  }
  return removed;
}

}  // namespace

// ---------------------------------------------------------------------------
// Open / lifecycle
// ---------------------------------------------------------------------------

TraceStore::TraceStore(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
TraceStore::TraceStore(TraceStore&& other) noexcept = default;
TraceStore& TraceStore::operator=(TraceStore&& other) noexcept = default;
TraceStore::~TraceStore() = default;

Result<TraceStore> TraceStore::Open(storage::Database* db) {
  return Open(db, TraceStoreOptions{});
}

Result<TraceStore> TraceStore::Open(storage::Database* db,
                                    const TraceStoreOptions& options) {
  size_t requested = options.shards;
  PROVLIN_ASSIGN_OR_RETURN(size_t existing, DetectShardCount(*db));
  if (requested == 0) {
    if (existing > 0) {
      requested = existing;
    } else if (const char* env = std::getenv("PROVLIN_TEST_SHARDS");
               env != nullptr && env[0] != '\0') {
      int n = std::atoi(env);
      requested = n >= 1 ? static_cast<size_t>(n) : 1;
    } else {
      requested = 1;
    }
  }
  const CompressMode compress = ResolveCompressMode(options);
  // Resharding walks physical tables row by row, and kOff promises a
  // segment-free store: both need every sealed run decoded back first.
  if (existing > 0 &&
      (compress == CompressMode::kOff || existing != requested)) {
    PROVLIN_RETURN_IF_ERROR(UnsealAllBlobs(db));
  }
  if (existing == 0) {
    PROVLIN_RETURN_IF_ERROR(CreateProvenanceSchema(db, requested));
  } else if (existing != requested) {
    PROVLIN_RETURN_IF_ERROR(ReshardDatabase(db, existing, requested));
  }

  auto rep = std::make_unique<Rep>();
  rep->db = db;
  rep->nshards = requested;
  rep->async = options.async_ingest;
  rep->compress = compress;
  rep->rows_ingested =
      common::metrics::GetCounter("provenance/rows_ingested");
  common::metrics::GetGauge("provenance/shards")
      ->Set(static_cast<int64_t>(requested));

  int64_t max_seq = -1;
  for (size_t k = 0; k < requested; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->id = k;
    PROVLIN_ASSIGN_OR_RETURN(
        shard->runs, db->GetTable(ShardTableName(tables::kRuns, k)));
    PROVLIN_ASSIGN_OR_RETURN(shard->val,
                             db->GetTable(ShardTableName(tables::kVal, k)));
    PROVLIN_ASSIGN_OR_RETURN(
        shard->xform, db->GetTable(ShardTableName(tables::kXform, k)));
    PROVLIN_ASSIGN_OR_RETURN(
        shard->xfer, db->GetTable(ShardTableName(tables::kXfer, k)));
    const std::string prefix = "provenance/shard" + std::to_string(k);
    shard->rows_ctr = common::metrics::GetCounter(prefix + "/rows");
    shard->probes_ctr = common::metrics::GetCounter(prefix + "/probes");
    shard->segments_ctr = common::metrics::GetCounter(prefix + "/segments");
    shard->segment_rows_g = common::metrics::GetGauge(prefix + "/segment_rows");
    shard->segment_bytes_g =
        common::metrics::GetGauge(prefix + "/segment_bytes");
    shard->hot_rows_g = common::metrics::GetGauge(prefix + "/hot_rows");
    for (uint64_t rid : shard->runs->FullScan()) {
      PROVLIN_ASSIGN_OR_RETURN(Row row, shard->runs->Get(rid));
      if (row[2].AsInt() > max_seq) max_seq = row[2].AsInt();
    }
    {
      // Re-attach the shard's sealed segments from the image's blob
      // catalog (none under kOff — everything was just unsealed). The
      // lock is uncontended here; it satisfies the guard annotations.
      common::WriterLock data(shard->data_mu);
      int64_t sealed_rows = 0, sealed_bytes = 0;
      for (const char* base : {tables::kXform, tables::kXfer}) {
        const std::string key_prefix =
            kSegmentBlobPrefix + ShardTableName(base, k) + "/";
        for (const std::string& key : db->BlobKeys()) {
          if (key.rfind(key_prefix, 0) != 0) continue;
          const std::string run_name = key.substr(key_prefix.size());
          std::optional<SymbolId> sym = db->symbols().Lookup(run_name);
          if (!sym.has_value()) {
            return Status::Corruption("segment blob '" + key +
                                      "' names an unknown run");
          }
          PROVLIN_ASSIGN_OR_RETURN(Segment seg,
                                   Segment::FromBytes(db->GetBlob(key)));
          sealed_rows += static_cast<int64_t>(seg.num_rows());
          sealed_bytes += static_cast<int64_t>(seg.bytes().size());
          auto& sealed = std::strcmp(base, tables::kXform) == 0
                             ? shard->sealed_xform
                             : shard->sealed_xfer;
          sealed.emplace(*sym, std::make_shared<const Segment>(std::move(seg)));
        }
      }
      shard->segment_rows_g->Set(sealed_rows);
      shard->segment_bytes_g->Set(sealed_bytes);
      shard->hot_rows_g->Set(static_cast<int64_t>(
          shard->runs->num_rows() + shard->val->num_rows() +
          shard->xform->num_rows() + shard->xfer->num_rows()));
    }
    rep->shards.push_back(std::move(shard));
  }
  {
    common::MutexLock lock(rep->run_mu);
    rep->next_run_seq = max_seq + 1;
  }
  if (requested > 1) {
    rep->fanout = std::make_unique<common::ThreadPool>(
        requested < 8 ? requested : size_t{8});
  }
  if (compress != CompressMode::kOff) {
    // Seal cold runs now: everything under kAlways, all but the
    // latest-inserted run per shard under kSeal (the run most likely
    // still being captured stays hot).
    for (auto& shard : rep->shards) {
      Shard* s = shard.get();
      common::WriterLock data(s->data_mu);
      if (compress == CompressMode::kAlways) {
        PROVLIN_RETURN_IF_ERROR(rep->SealShardRunsLocked(s, nullptr));
        continue;
      }
      std::string latest;
      int64_t best = -1;
      bool have = false;
      s->runs->ForEachLiveRow([&](uint64_t, const Row& row) {
        if (!have || row[2].AsInt() >= best) {
          best = row[2].AsInt();
          latest = row[0].AsString();
          have = true;
        }
      });
      PROVLIN_RETURN_IF_ERROR(
          rep->SealShardRunsLocked(s, have ? &latest : nullptr));
    }
  }
  if (rep->async) {
    Rep* raw = rep.get();
    for (auto& shard : rep->shards) {
      shard->writer = std::thread([raw, s = shard.get()] {
        raw->WriterLoop(s);
      });
    }
  }
  return TraceStore(std::move(rep));
}

size_t TraceStore::shard_count() const { return rep_->nshards; }

size_t TraceStore::ShardOfRun(std::string_view run_id) const {
  return rep_->ShardIdOfRun(run_id);
}

Status TraceStore::Flush() {
  Status first = Status::OK();
  for (auto& shard : rep_->shards) {
    Status st = rep_->Drain(shard.get());
    if (first.ok() && !st.ok()) first = st;
  }
  // kAlways keeps nothing hot across a flush boundary — the freshly
  // captured run is sealed too.
  if (first.ok() && rep_->compress == CompressMode::kAlways) {
    first = SealAllRuns();
  }
  return first;
}

CompressMode TraceStore::compress_mode() const { return rep_->compress; }

Status TraceStore::SealRun(const std::string& run_id) {
  Rep* rep = rep_.get();
  Shard* s = rep->ShardForRun(run_id);
  PROVLIN_RETURN_IF_ERROR(rep->Drain(s));
  common::WriterLock data(s->data_mu);
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> run_rows,
      s->runs->IndexLookup(indexes::kRunsById, {Datum(run_id)}));
  if (run_rows.empty()) {
    return Status::NotFound("run '" + run_id + "' not recorded");
  }
  std::optional<SymbolId> run_sym = rep->db->symbols().Lookup(run_id);
  // A run that never minted a symbol has no trace rows to seal.
  if (!run_sym.has_value()) return Status::OK();
  return rep->SealRunLocked(s, *run_sym, run_id);
}

Status TraceStore::SealAllRuns() {
  Rep* rep = rep_.get();
  for (auto& shard : rep->shards) {
    Shard* s = shard.get();
    PROVLIN_RETURN_IF_ERROR(rep->Drain(s));
    common::WriterLock data(s->data_mu);
    PROVLIN_RETURN_IF_ERROR(rep->SealShardRunsLocked(s, nullptr));
  }
  return Status::OK();
}

TraceStore::TierBytes TraceStore::ApproxMemory() const {
  TierBytes tb;
  for (auto& shard : rep_->shards) {
    Shard* s = shard.get();
    Rep::ReadLock data(*rep_, s);
    tb.hot_bytes +=
        s->xform->ApproxMemoryUsage() + s->xfer->ApproxMemoryUsage();
    tb.hot_rows += s->xform->num_rows() + s->xfer->num_rows();
    for (const auto& [sym, seg] : s->sealed_xform) {
      tb.sealed_bytes += seg->ApproxMemoryUsage();
      tb.sealed_rows += seg->num_rows();
    }
    for (const auto& [sym, seg] : s->sealed_xfer) {
      tb.sealed_bytes += seg->ApproxMemoryUsage();
      tb.sealed_rows += seg->num_rows();
    }
  }
  return tb;
}

storage::Database* TraceStore::db() { return rep_->db; }
const storage::Database* TraceStore::db() const { return rep_->db; }

// ---------------------------------------------------------------------------
// Dictionaries
// ---------------------------------------------------------------------------

SymbolId TraceStore::Intern(std::string_view name) const {
  return rep_->db->symbols().Intern(name);
}

std::optional<SymbolId> TraceStore::LookupSymbol(std::string_view name) const {
  return rep_->db->symbols().Lookup(name);
}

const std::string& TraceStore::NameOf(SymbolId id) const {
  return rep_->db->symbols().NameOf(id);
}

IndexId TraceStore::InternIndex(const Index& index) const {
  return rep_->db->index_dict().Intern(index.parts());
}

// ---------------------------------------------------------------------------
// WAL attach / replay
// ---------------------------------------------------------------------------

Status TraceStore::AttachWalFiles(const std::string& base) {
  for (auto& shard : rep_->shards) {
    PROVLIN_ASSIGN_OR_RETURN(
        storage::WriteAheadLog wal,
        storage::WriteAheadLog::Open(storage::ShardWalPath(base, shard->id)));
    common::WriterLock data(shard->data_mu);
    shard->owned_wal.emplace(std::move(wal));
  }
  if (rep_->nshards > 1) {
    PROVLIN_RETURN_IF_ERROR(storage::WriteWalManifest(base, rep_->nshards));
  }
  return Status::OK();
}

Result<size_t> TraceStore::ReplayWal(const std::string& wal_path,
                                     storage::Database* db, size_t shards) {
  auto manifest = storage::ReadWalManifest(wal_path);
  const size_t wal_shards = manifest.ok() ? manifest.value() : 1;

  PROVLIN_ASSIGN_OR_RETURN(size_t existing, DetectShardCount(*db));
  size_t target = shards;
  if (target == 0) target = existing > 0 ? existing : wal_shards;
  // Replay inserts and sweeps rows directly in the tables, so a target
  // database carrying sealed segments decodes them back first.
  if (existing > 0) PROVLIN_RETURN_IF_ERROR(UnsealAllBlobs(db));
  if (existing == 0) {
    PROVLIN_RETURN_IF_ERROR(CreateProvenanceSchema(db, target));
  } else if (existing != target) {
    PROVLIN_RETURN_IF_ERROR(ReshardDatabase(db, existing, target));
  }

  size_t applied = 0;
  for (size_t k = 0; k < wal_shards; ++k) {
    const std::string path = storage::ShardWalPath(wal_path, k);
    if (k > 0) {
      // A shard file can legitimately be missing if the manifest was
      // written but that shard crashed before creating its log.
      std::ifstream probe(path, std::ios::binary);
      if (!probe) continue;
    }
    PROVLIN_ASSIGN_OR_RETURN(std::vector<std::string> records,
                             storage::WriteAheadLog::Replay(path));
    for (const std::string& record : records) {
      storage::BinaryReader r(record);
      PROVLIN_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
      if (tag == kTagSymbol) {
        PROVLIN_ASSIGN_OR_RETURN(std::string name, r.ReadString());
        db->symbols().Intern(name);
        continue;
      }
      if (tag == kTagDeleteRun) {
        // Replay-skip: sweep the deleted run's rows out of its owning
        // shard, exactly as the live DeleteRun did.
        PROVLIN_ASSIGN_OR_RETURN(std::string run_id, r.ReadString());
        size_t owner = target == 1 ? 0 : RunShardHash(run_id) % target;
        PROVLIN_RETURN_IF_ERROR(SweepRunRows(db, owner, run_id).status());
        continue;
      }
      if (tag > kTagXfer) {
        return Status::Corruption("bad WAL table tag " + std::to_string(tag));
      }
      PROVLIN_ASSIGN_OR_RETURN(Row row, r.ReadRow());
      // Route by the row's run under the *target* layout, so replaying
      // into a differently-sharded database reshards on the fly.
      const std::string& run_name =
          tag == kTagRuns ? row[0].AsString()
                          : db->symbols().NameOf(SymOf(row[0]));
      size_t owner = target == 1 ? 0 : RunShardHash(run_name) % target;
      const char* base = tag == kTagRuns  ? tables::kRuns
                         : tag == kTagVal ? tables::kVal
                         : tag == kTagXform ? tables::kXform
                                            : tables::kXfer;
      PROVLIN_ASSIGN_OR_RETURN(Table * table,
                               db->GetTable(ShardTableName(base, owner)));
      PROVLIN_RETURN_IF_ERROR(table->Insert(row).status());
      ++applied;
    }
  }
  return applied;
}

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

Status TraceStore::InsertRun(const std::string& run_id,
                             const std::string& workflow) {
  Rep* rep = rep_.get();
  Shard* s = rep->ShardForRun(run_id);
  // Maintenance ops are synchronous: barrier the shard so the WAL keeps
  // enqueue order, then write under its exclusive lock.
  PROVLIN_RETURN_IF_ERROR(rep->Drain(s));
  int64_t seq = 0;
  {
    common::MutexLock lock(rep->run_mu);
    seq = rep->next_run_seq++;
  }
  common::WriterLock data(s->data_mu);
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> existing,
      s->runs->IndexLookup(indexes::kRunsById, {Datum(run_id)}));
  if (!existing.empty()) {
    return Status::AlreadyExists("run '" + run_id + "' already recorded");
  }
  PROVLIN_RETURN_IF_ERROR(rep->Apply(
      s, {kTagRuns, Row{Datum(run_id), Datum(workflow), Datum(seq)}}));
  // A new run marks the shard's earlier runs cold: seal them so the hot
  // tier only ever holds the run currently being captured.
  if (rep->compress != CompressMode::kOff) {
    PROVLIN_RETURN_IF_ERROR(rep->SealShardRunsLocked(s, &run_id));
  }
  return Status::OK();
}

Result<int64_t> TraceStore::InternValue(const std::string& run_id,
                                        const std::string& repr) {
  // Interning is an in-memory write-path optimization: ids are unique per
  // run, and a freshly opened store only ever writes new runs.
  Rep* rep = rep_.get();
  SymbolId run = Intern(run_id);
  Shard* s = rep->ShardForRun(run_id);
  common::MutexLock lock(s->ingest_mu);
  PROVLIN_RETURN_IF_ERROR(s->ingest_status);
  auto key = std::make_pair(run, repr);
  auto it = s->intern_cache.find(key);
  if (it != s->intern_cache.end()) return it->second;
  int64_t id = static_cast<int64_t>(s->next_value_id[run]++);
  Row row{SymDatum(run), Datum(id), Datum(repr)};
  if (rep->async) {
    while (s->queue.size() >= kMaxQueuedRows && !s->stop) {
      s->space_cv.Wait(s->ingest_mu);
    }
    PROVLIN_RETURN_IF_ERROR(s->ingest_status);
    s->queue.push_back({kTagVal, std::move(row)});
    ++s->enqueued;
    s->work_cv.NotifyOne();
  } else {
    // Lock order: ingest_mu nests outside data_mu (§11 lock table).
    common::WriterLock data(s->data_mu);
    PROVLIN_RETURN_IF_ERROR(rep->Apply(s, {kTagVal, std::move(row)}));
  }
  s->intern_cache[key] = id;
  return id;
}

Status TraceStore::InsertXform(const XformRecord& rec) {
  static auto* rows = common::metrics::GetCounter("provenance/xform_rows");
  rows->Increment();
  Row row(8);
  row[xform_col::kRun] = SymDatum(rec.run);
  row[xform_col::kEvent] = Datum(rec.event_id);
  if (rec.has_in) {
    row[xform_col::kIn] = Datum(IdPair{rec.processor, rec.in_port});
    row[xform_col::kInIndex] = Datum(IndexPath(rec.in_index.parts()));
    row[xform_col::kInValue] = Datum(rec.in_value);
  }
  if (rec.has_out) {
    row[xform_col::kOut] = Datum(IdPair{rec.processor, rec.out_port});
    row[xform_col::kOutIndex] = Datum(IndexPath(rec.out_index.parts()));
    row[xform_col::kOutValue] = Datum(rec.out_value);
  }
  Shard* s = rep_->ShardForSym(rec.run);
  return rep_->EnqueueOrApply(s, kTagXform, std::move(row));
}

Status TraceStore::InsertXfer(const XferRecord& rec) {
  static auto* rows = common::metrics::GetCounter("provenance/xfer_rows");
  rows->Increment();
  Row row{SymDatum(rec.run),
          Datum(IdPair{rec.src_proc, rec.src_port}),
          Datum(IndexPath(rec.src_index.parts())),
          Datum(IdPair{rec.dst_proc, rec.dst_port}),
          Datum(IndexPath(rec.dst_index.parts())),
          Datum(rec.value_id)};
  Shard* s = rep_->ShardForSym(rec.run);
  return rep_->EnqueueOrApply(s, kTagXfer, std::move(row));
}

Result<size_t> TraceStore::DeleteRun(const std::string& run_id) {
  Rep* rep = rep_.get();
  Shard* s = rep->ShardForRun(run_id);
  PROVLIN_RETURN_IF_ERROR(rep->Drain(s));
  std::optional<SymbolId> run_sym = LookupSymbol(run_id);
  // Drop the write-path caches for the deleted run so a future run may
  // reuse the id with fresh value ids. (The symbol itself is
  // append-only and survives; ids must stay stable for other runs.)
  // Done before taking data_mu: ingest_mu never nests inside it.
  if (run_sym.has_value()) {
    common::MutexLock lock(s->ingest_mu);
    s->next_value_id.erase(*run_sym);
    for (auto it = s->intern_cache.begin(); it != s->intern_cache.end();) {
      if (it->first.first == *run_sym) {
        it = s->intern_cache.erase(it);
      } else {
        ++it;
      }
    }
  }
  common::WriterLock data(s->data_mu);
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> run_rows,
      s->runs->IndexLookup(indexes::kRunsById, {Datum(run_id)}));
  if (run_rows.empty()) {
    return Status::NotFound("run '" + run_id + "' not recorded");
  }
  size_t removed = 0;
  for (uint64_t rid : run_rows) {
    PROVLIN_RETURN_IF_ERROR(s->runs->Delete(rid));
    ++removed;
  }
  // The trace tables key everything by the run symbol in column 0; a run
  // that never minted a symbol has no trace rows to sweep. The tail
  // run's rows leave with the heap tail, without tombstones; the sweep
  // finds any other run's rows (pending rows are the tail's alone).
  if (run_sym.has_value()) {
    if (*run_sym == s->tail_run) {
      s->tail_run = common::kNoSymbol;
      for (Table* table : {s->xform, s->xfer}) {
        PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                 table->TakeTail(table->pending_begin()));
        removed += rows.size();
      }
    }
    Datum run_datum = SymDatum(*run_sym);
    for (Table* table : {s->val, s->xform, s->xfer}) {
      std::vector<uint64_t> to_delete;
      for (uint64_t rid : table->FullScan()) {
        PROVLIN_ASSIGN_OR_RETURN(Row row, table->Get(rid));
        if (row[0] == run_datum) to_delete.push_back(rid);
      }
      for (uint64_t rid : to_delete) {
        PROVLIN_RETURN_IF_ERROR(table->Delete(rid));
        ++removed;
      }
    }
  }
  s->hot_rows_g->Add(-static_cast<int64_t>(removed));
  // A sealed run's trace rows drop with their whole segment — no
  // decode needed, the run is gone either way.
  if (run_sym.has_value()) {
    const char* seal_bases[] = {tables::kXform, tables::kXfer};
    std::map<SymbolId, std::shared_ptr<const Segment>>* sealed_maps[] = {
        &s->sealed_xform, &s->sealed_xfer};
    for (size_t m = 0; m < 2; ++m) {
      auto it = sealed_maps[m]->find(*run_sym);
      if (it == sealed_maps[m]->end()) continue;
      const Segment& seg = *it->second;
      removed += seg.num_rows();
      s->segment_rows_g->Add(-static_cast<int64_t>(seg.num_rows()));
      s->segment_bytes_g->Add(-static_cast<int64_t>(seg.bytes().size()));
      rep->db->DropBlob(SegmentBlobKey(seal_bases[m], s->id, run_id));
      sealed_maps[m]->erase(it);
    }
  }
  // Deletion touches only the owning shard's WAL: its replay sweeps the
  // run back out, and no other shard's log ever mentions this run.
  if (s->owned_wal.has_value()) {
    storage::BinaryWriter w;
    w.WriteU8(kTagDeleteRun);
    w.WriteString(run_id);
    PROVLIN_RETURN_IF_ERROR(s->owned_wal->Append(w.buffer()));
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

Result<std::string> TraceStore::RunWorkflow(const std::string& run_id) const {
  Shard* s = rep_->ShardForRun(run_id);
  PROVLIN_RETURN_IF_ERROR(rep_->Drain(s));
  common::ReaderLock data(s->data_mu);
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> run_rows,
      s->runs->IndexLookup(indexes::kRunsById, {Datum(run_id)}));
  if (run_rows.empty()) {
    return Status::NotFound("run '" + run_id + "' not recorded");
  }
  PROVLIN_ASSIGN_OR_RETURN(Row row, s->runs->Get(run_rows.front()));
  return row[1].AsString();
}

Result<std::vector<std::string>> TraceStore::ListRuns() const {
  // Single shard: pure insertion (rid) order — the legacy behavior,
  // including for pre-sharding images whose seq column may repeat.
  if (rep_->nshards == 1) {
    Shard* s = rep_->shards[0].get();
    PROVLIN_RETURN_IF_ERROR(rep_->Drain(s));
    common::ReaderLock data(s->data_mu);
    std::vector<std::string> out;
    for (uint64_t rid : s->runs->FullScan()) {
      PROVLIN_ASSIGN_OR_RETURN(Row row, s->runs->Get(rid));
      out.push_back(row[0].AsString());
    }
    return out;
  }
  // Sharded: merge by the global run sequence number.
  std::vector<std::pair<int64_t, std::string>> acc;
  for (auto& shard : rep_->shards) {
    Shard* s = shard.get();
    PROVLIN_RETURN_IF_ERROR(rep_->Drain(s));
    common::ReaderLock data(s->data_mu);
    for (uint64_t rid : s->runs->FullScan()) {
      PROVLIN_ASSIGN_OR_RETURN(Row row, s->runs->Get(rid));
      acc.emplace_back(row[2].AsInt(), row[0].AsString());
    }
  }
  std::stable_sort(acc.begin(), acc.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> out;
  out.reserve(acc.size());
  for (auto& [seq, id] : acc) out.push_back(std::move(id));
  return out;
}

ProbeMemoScope::ProbeMemoScope(ProbeMemo* memo) : prev_(g_active_probe_memo) {
  g_active_probe_memo = memo;
}

ProbeMemoScope::~ProbeMemoScope() { g_active_probe_memo = prev_; }

ProbeMemo* ProbeMemoScope::Active() { return g_active_probe_memo; }

ProbeBreakdownScope::ProbeBreakdownScope(ProbeBreakdown* breakdown)
    : prev_(g_active_probe_breakdown) {
  g_active_probe_breakdown = breakdown;
}

ProbeBreakdownScope::~ProbeBreakdownScope() {
  g_active_probe_breakdown = prev_;
}

ProbeBreakdown* ProbeBreakdownScope::Active() {
  return g_active_probe_breakdown;
}

template <typename Record>
Result<std::vector<Record>> TraceStore::FindOneImpl(
    int kind, const char* table, const char* pair_col, const char* index_col,
    Record (*decode)(const storage::Row&), SymbolId run, IdPair pair,
    const Index& idx) const {
  PROVLIN_TRACE_SPAN("trace/find");
  ProbeMemo* memo = ProbeMemoScope::Active();
  ProbeMemo::Key key;
  if (memo != nullptr) {
    key = ProbeMemo::Key{rep_->db, kind, run, pair.Packed(), idx};
    memo->lookups_.fetch_add(1, std::memory_order_relaxed);
    MemoMx().lookups->Increment();
    common::MutexLock lock(memo->mu_);
    auto& map = memo->MapFor<Record>();
    auto it = map.find(key);
    if (it != map.end()) {
      memo->hits_.fetch_add(1, std::memory_order_relaxed);
      MemoMx().hits->Increment();
      return *it->second;
    }
  }
  const size_t shard_id = rep_->ShardIdOfSym(run);
  Shard* s = rep_->shards[shard_id].get();
  std::vector<Record> out;
  ProbeBreakdown* breakdown = ProbeBreakdownScope::Active();
  const storage::ThreadStats before = storage::ThisThreadStats();
  {
    Rep::ReadLock data(*rep_, s);
    PROVLIN_RETURN_IF_ERROR(data.status());
    s->probes_ctr->Increment();
    if (const Segment* seg = s->SealedSegFor(table, run)) {
      // Sealed run: answer in place on the compressed segment.
      Segment::Scratch scratch;
      Segment::ProbeCounts counts;
      size_t queries = 0;
      PROVLIN_RETURN_IF_ERROR(SealedOverlapProbe(
          *seg, ViewForPairCol(pair_col), pair, idx, &scratch, &counts,
          &queries, [&](const Row& row) { out.push_back(decode(row)); }));
      CreditSealedProbe(queries, counts, /*batched=*/false);
      if (breakdown != nullptr) {
        breakdown->CreditSealed(queries, counts.entries_examined);
      }
    } else {
      PROVLIN_RETURN_IF_ERROR(OverlapProbe(
          s->ProbeTableFor(table), run, pair_col, pair, index_col, idx,
          [&](const Row& row) { out.push_back(decode(row)); }));
    }
  }
  if (breakdown != nullptr) {
    const storage::ThreadStats after = storage::ThisThreadStats();
    breakdown->CreditShard(static_cast<uint32_t>(shard_id),
                           after.index_probes - before.index_probes,
                           after.descents - before.descents,
                           after.rows_examined - before.rows_examined);
  }
  if (memo != nullptr) {
    auto cached = std::make_shared<const std::vector<Record>>(out);
    common::MutexLock lock(memo->mu_);
    memo->MapFor<Record>().emplace(key, std::move(cached));
  }
  return out;
}

template <typename Record>
Result<std::vector<std::vector<Record>>> TraceStore::FindBatchImpl(
    int kind, const char* table, const char* pair_col, const char* index_col,
    Record (*decode)(const storage::Row&),
    const std::vector<PortProbe>& probes) const {
  PROVLIN_TRACE_SPAN_VAR(span, "trace/find_batch");
  if (span.active()) {
    span.SetArgs("probes=" + std::to_string(probes.size()));
  }
  std::vector<std::vector<Record>> results(probes.size());
  ProbeMemo* memo = ProbeMemoScope::Active();

  std::vector<size_t> misses;
  std::vector<ProbeMemo::Key> keys;
  if (memo == nullptr) {
    misses.resize(probes.size());
    std::iota(misses.begin(), misses.end(), size_t{0});
  } else {
    keys.reserve(probes.size());
    for (const PortProbe& p : probes) {
      keys.push_back(ProbeMemo::Key{rep_->db, kind, p.run,
                                    IdPair{p.processor, p.port}.Packed(),
                                    p.index});
    }
    memo->lookups_.fetch_add(probes.size(), std::memory_order_relaxed);
    MemoMx().lookups->Add(probes.size());
    common::MutexLock lock(memo->mu_);
    auto& map = memo->MapFor<Record>();
    uint64_t hits = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      auto it = map.find(keys[i]);
      if (it != map.end()) {
        ++hits;
        results[i] = *it->second;
      } else {
        misses.push_back(i);
      }
    }
    if (hits > 0) {
      memo->hits_.fetch_add(hits, std::memory_order_relaxed);
      MemoMx().hits->Add(hits);
    }
  }
  if (misses.empty()) return results;

  // Group the missed probes by owning shard, preserving probe order
  // inside each group. With one shard (or one run) this is a single
  // group executed inline — the pre-sharding fast path, bit for bit.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i : misses) {
    groups[rep_->ShardIdOfSym(probes[i].run)].push_back(i);
  }

  // Executes one shard's sub-batch; results land directly in the
  // caller-ordered slots, so the merge is the index mapping itself.
  // `sealed_probes`/`sealed_rows` accumulate the slice of the work the
  // sealed tier answered, for per-tier attribution by the caller.
  auto run_group = [&](size_t shard_id, const std::vector<size_t>& idxs,
                       uint64_t* sealed_probes,
                       uint64_t* sealed_rows) -> Status {
    Shard* s = rep_->shards[shard_id].get();
    Rep::ReadLock data(*rep_, s);
    PROVLIN_RETURN_IF_ERROR(data.status());
    s->probes_ctr->Add(idxs.size());
    // Split the shard's probes by tier: sealed runs answer on their
    // compressed segments, the rest flatten into one MultiSelect pass
    // over the hot tables. Results land in caller-ordered slots either
    // way, so the merge stays the index mapping itself.
    std::vector<size_t> hot;
    std::map<SymbolId, std::vector<size_t>> sealed_runs;
    for (size_t i : idxs) {
      if (s->SealedSegFor(table, probes[i].run) != nullptr) {
        sealed_runs[probes[i].run].push_back(i);
      } else {
        hot.push_back(i);
      }
    }
    if (!hot.empty()) {
      std::vector<PortProbe> sub;
      const std::vector<PortProbe>* batch = &probes;
      if (hot.size() != probes.size()) {
        sub.reserve(hot.size());
        for (size_t i : hot) sub.push_back(probes[i]);
        batch = &sub;
      }
      PROVLIN_RETURN_IF_ERROR(OverlapProbeBatch(
          s->ProbeTableFor(table), pair_col, index_col, *batch,
          [&](size_t m, const Row& row) {
            results[hot[m]].push_back(decode(row));
          }));
    }
    const size_t view = ViewForPairCol(pair_col);
    for (auto& [run_sym, ridx] : sealed_runs) {
      const Segment* seg = s->SealedSegFor(table, run_sym);
      // Sort the run's probes in view key order so the segment cursor
      // walks forward across them (the MultiSeek equivalent). Empty
      // indexes sort first within a pair — an unbounded probe must not
      // reuse a cursor mid-pair.
      std::stable_sort(ridx.begin(), ridx.end(), [&](size_t a, size_t b) {
        const uint64_t ka =
            IdPair{probes[a].processor, probes[a].port}.Packed();
        const uint64_t kb =
            IdPair{probes[b].processor, probes[b].port}.Packed();
        if (ka != kb) return ka < kb;
        return probes[a].index.parts() < probes[b].index.parts();
      });
      Segment::Scratch scratch;
      Segment::ProbeCounts counts;
      size_t queries = 0;
      for (size_t i : ridx) {
        PROVLIN_RETURN_IF_ERROR(SealedOverlapProbe(
            *seg, view, IdPair{probes[i].processor, probes[i].port},
            probes[i].index, &scratch, &counts, &queries,
            [&](const Row& row) { results[i].push_back(decode(row)); }));
      }
      CreditSealedProbe(queries, counts, /*batched=*/true);
      *sealed_probes += queries;
      *sealed_rows += counts.entries_examined;
    }
    return Status::OK();
  };

  ProbeBreakdown* breakdown = ProbeBreakdownScope::Active();
  if (groups.size() <= 1) {
    for (const auto& [shard_id, idxs] : groups) {
      const storage::ThreadStats before = storage::ThisThreadStats();
      uint64_t sealed_probes = 0;
      uint64_t sealed_rows = 0;
      PROVLIN_RETURN_IF_ERROR(
          run_group(shard_id, idxs, &sealed_probes, &sealed_rows));
      if (breakdown != nullptr) {
        const storage::ThreadStats after = storage::ThisThreadStats();
        breakdown->CreditShard(static_cast<uint32_t>(shard_id),
                               after.index_probes - before.index_probes,
                               after.descents - before.descents,
                               after.rows_examined - before.rows_examined);
        breakdown->CreditSealed(sealed_probes, sealed_rows);
      }
    }
  } else {
    // Fan the per-shard sub-batches out over the store's pool. Each task
    // writes disjoint result slots; probe/descent deltas harvested from
    // the worker's thread-local stats are credited back to the caller so
    // cost attribution stays identical to inline execution.
    struct GroupOutcome {
      Status status;
      storage::ThreadStats delta;
      size_t shard_id = 0;
      uint64_t sealed_probes = 0;
      uint64_t sealed_rows = 0;
    };
    std::vector<GroupOutcome> outcomes(groups.size());
    FanLatch latch;
    {
      common::MutexLock lock(latch.mu);
      latch.pending = groups.size();
    }
    size_t slot = 0;
    for (const auto& [shard_id, idxs] : groups) {
      const std::vector<size_t>* idxs_p = &idxs;
      const size_t my_slot = slot++;
      const size_t my_shard = shard_id;
      rep_->fanout->Submit([&, idxs_p, my_slot, my_shard]() {
        storage::ThreadStats& mine = storage::ThisThreadStats();
        const storage::ThreadStats before = mine;
        GroupOutcome& out = outcomes[my_slot];
        out.shard_id = my_shard;
        out.status = run_group(my_shard, *idxs_p, &out.sealed_probes,
                               &out.sealed_rows);
        const storage::ThreadStats after = mine;
        out.delta.index_probes = after.index_probes - before.index_probes;
        out.delta.full_scans = after.full_scans - before.full_scans;
        out.delta.rows_examined = after.rows_examined - before.rows_examined;
        out.delta.batched_probes = after.batched_probes - before.batched_probes;
        out.delta.descents = after.descents - before.descents;
        common::MutexLock lock(latch.mu);
        if (--latch.pending == 0) latch.cv.NotifyAll();
      });
    }
    {
      common::MutexLock lock(latch.mu);
      while (latch.pending > 0) latch.cv.Wait(latch.mu);
    }
    storage::ThreadStats& mine = storage::ThisThreadStats();
    Status first = Status::OK();
    for (const GroupOutcome& out : outcomes) {
      mine.index_probes += out.delta.index_probes;
      mine.full_scans += out.delta.full_scans;
      mine.rows_examined += out.delta.rows_examined;
      mine.batched_probes += out.delta.batched_probes;
      mine.descents += out.delta.descents;
      if (breakdown != nullptr) {
        breakdown->CreditShard(static_cast<uint32_t>(out.shard_id),
                               out.delta.index_probes, out.delta.descents,
                               out.delta.rows_examined);
        breakdown->CreditSealed(out.sealed_probes, out.sealed_rows);
      }
      if (first.ok() && !out.status.ok()) first = out.status;
    }
    PROVLIN_RETURN_IF_ERROR(first);
  }

  if (memo != nullptr) {
    common::MutexLock lock(memo->mu_);
    auto& map = memo->MapFor<Record>();
    for (size_t i : misses) {
      map.emplace(keys[i],
                  std::make_shared<const std::vector<Record>>(results[i]));
    }
  }
  return results;
}

Result<std::vector<XformRecord>> TraceStore::FindProducing(
    SymbolId run, SymbolId processor, SymbolId out_port,
    const Index& q) const {
  return FindOneImpl<XformRecord>(kKindProducing, tables::kXform, "out",
                                  "out_index", &DecodeXform, run,
                                  IdPair{processor, out_port}, q);
}

Result<std::vector<std::vector<XformRecord>>> TraceStore::FindProducingBatch(
    const std::vector<PortProbe>& probes) const {
  return FindBatchImpl<XformRecord>(kKindProducing, tables::kXform, "out",
                                    "out_index", &DecodeXform, probes);
}

Result<std::vector<std::vector<XformRecord>>> TraceStore::FindConsumingBatch(
    const std::vector<PortProbe>& probes) const {
  return FindBatchImpl<XformRecord>(kKindConsuming, tables::kXform, "in",
                                    "in_index", &DecodeXform, probes);
}

Result<std::vector<std::vector<XferRecord>>> TraceStore::FindXfersIntoBatch(
    const std::vector<PortProbe>& probes) const {
  return FindBatchImpl<XferRecord>(kKindXferInto, tables::kXfer, "dst",
                                   "dst_index", &DecodeXfer, probes);
}

Result<std::vector<std::vector<XferRecord>>> TraceStore::FindXfersFromBatch(
    const std::vector<PortProbe>& probes) const {
  return FindBatchImpl<XferRecord>(kKindXferFrom, tables::kXfer, "src",
                                   "src_index", &DecodeXfer, probes);
}

Result<std::vector<XformRecord>> TraceStore::FindProducing(
    const std::string& run, const std::string& processor,
    const std::string& out_port, const Index& q) const {
  auto r = LookupSymbol(run);
  auto p = LookupSymbol(processor);
  auto o = LookupSymbol(out_port);
  if (!r || !p || !o) return std::vector<XformRecord>{};
  return FindProducing(*r, *p, *o, q);
}

Result<std::vector<XformRecord>> TraceStore::FindConsuming(
    SymbolId run, SymbolId processor, SymbolId in_port, const Index& p) const {
  return FindOneImpl<XformRecord>(kKindConsuming, tables::kXform, "in",
                                  "in_index", &DecodeXform, run,
                                  IdPair{processor, in_port}, p);
}

Result<std::vector<XformRecord>> TraceStore::FindConsuming(
    const std::string& run, const std::string& processor,
    const std::string& in_port, const Index& p) const {
  auto r = LookupSymbol(run);
  auto pr = LookupSymbol(processor);
  auto i = LookupSymbol(in_port);
  if (!r || !pr || !i) return std::vector<XformRecord>{};
  return FindConsuming(*r, *pr, *i, p);
}

Result<std::vector<XferRecord>> TraceStore::FindXfersInto(
    SymbolId run, SymbolId dst_proc, SymbolId dst_port, const Index& p) const {
  return FindOneImpl<XferRecord>(kKindXferInto, tables::kXfer, "dst",
                                 "dst_index", &DecodeXfer, run,
                                 IdPair{dst_proc, dst_port}, p);
}

Result<std::vector<XferRecord>> TraceStore::FindXfersInto(
    const std::string& run, const std::string& dst_proc,
    const std::string& dst_port, const Index& p) const {
  auto r = LookupSymbol(run);
  auto d = LookupSymbol(dst_proc);
  auto dp = LookupSymbol(dst_port);
  if (!r || !d || !dp) return std::vector<XferRecord>{};
  return FindXfersInto(*r, *d, *dp, p);
}

Result<std::vector<XferRecord>> TraceStore::FindXfersFrom(
    SymbolId run, SymbolId src_proc, SymbolId src_port, const Index& p) const {
  return FindOneImpl<XferRecord>(kKindXferFrom, tables::kXfer, "src",
                                 "src_index", &DecodeXfer, run,
                                 IdPair{src_proc, src_port}, p);
}

Result<std::vector<XferRecord>> TraceStore::FindXfersFrom(
    const std::string& run, const std::string& src_proc,
    const std::string& src_port, const Index& p) const {
  auto r = LookupSymbol(run);
  auto s = LookupSymbol(src_proc);
  auto sp = LookupSymbol(src_port);
  if (!r || !s || !sp) return std::vector<XferRecord>{};
  return FindXfersFrom(*r, *s, *sp, p);
}

Result<std::vector<XformRecord>> TraceStore::ScanXforms(
    const std::string& run) const {
  std::vector<XformRecord> out;
  std::optional<SymbolId> run_sym = LookupSymbol(run);
  if (!run_sym.has_value()) return out;
  Datum run_datum = SymDatum(*run_sym);
  Shard* s = rep_->ShardForRun(run);
  Rep::ReadLock data(*rep_, s);
  PROVLIN_RETURN_IF_ERROR(data.status());
  if (const Segment* seg = s->SealedSegFor(tables::kXform, *run_sym)) {
    // Ordinal order is insertion order — the same order the hot scan
    // discovers the run's rows in.
    PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows, seg->DecodeAllRows());
    out.reserve(rows.size());
    for (const Row& row : rows) out.push_back(DecodeXform(row));
    return out;
  }
  for (uint64_t rid : s->xform->FullScan()) {
    PROVLIN_ASSIGN_OR_RETURN(Row row, s->xform->Get(rid));
    if (row[0] == run_datum) out.push_back(DecodeXform(row));
  }
  return out;
}

Result<std::vector<XferRecord>> TraceStore::ScanXfers(
    const std::string& run) const {
  std::vector<XferRecord> out;
  std::optional<SymbolId> run_sym = LookupSymbol(run);
  if (!run_sym.has_value()) return out;
  Datum run_datum = SymDatum(*run_sym);
  Shard* s = rep_->ShardForRun(run);
  Rep::ReadLock data(*rep_, s);
  PROVLIN_RETURN_IF_ERROR(data.status());
  if (const Segment* seg = s->SealedSegFor(tables::kXfer, *run_sym)) {
    PROVLIN_ASSIGN_OR_RETURN(std::vector<Row> rows, seg->DecodeAllRows());
    out.reserve(rows.size());
    for (const Row& row : rows) out.push_back(DecodeXfer(row));
    return out;
  }
  for (uint64_t rid : s->xfer->FullScan()) {
    PROVLIN_ASSIGN_OR_RETURN(Row row, s->xfer->Get(rid));
    if (row[0] == run_datum) out.push_back(DecodeXfer(row));
  }
  return out;
}

Result<std::string> TraceStore::GetValueRepr(SymbolId run,
                                             int64_t value_id) const {
  Shard* s = rep_->ShardForSym(run);
  Rep::ReadLock data(*rep_, s);
  PROVLIN_RETURN_IF_ERROR(data.status());
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<uint64_t> rids,
      s->val->IndexLookup(indexes::kValById, {SymDatum(run), Datum(value_id)}));
  if (rids.empty()) {
    return Status::NotFound("no value " + std::to_string(value_id) +
                            " in run '" + NameOf(run) + "'");
  }
  const Row* row = s->val->PeekRow(rids.front());
  if (row == nullptr) {
    return Status::NotFound("row " + std::to_string(rids.front()) +
                            " not found");
  }
  return (*row)[2].AsString();
}

Result<std::string> TraceStore::GetValueRepr(const std::string& run,
                                             int64_t value_id) const {
  std::optional<SymbolId> run_sym = LookupSymbol(run);
  if (!run_sym.has_value()) {
    return Status::NotFound("no value " + std::to_string(value_id) +
                            " in run '" + run + "'");
  }
  return GetValueRepr(*run_sym, value_id);
}

Result<Value> TraceStore::GetValue(const std::string& run,
                                   int64_t value_id) const {
  PROVLIN_ASSIGN_OR_RETURN(std::string repr, GetValueRepr(run, value_id));
  return ParseValue(repr);
}

Result<TraceCounts> TraceStore::CountRecords(const std::string& run) const {
  TraceCounts counts;
  std::optional<SymbolId> run_sym = LookupSymbol(run);
  if (!run_sym.has_value()) return counts;
  Datum run_datum = SymDatum(*run_sym);
  Shard* s = rep_->ShardForRun(run);
  Rep::ReadLock data(*rep_, s);
  PROVLIN_RETURN_IF_ERROR(data.status());
  auto count_in = [&](const Table* t) -> Result<size_t> {
    size_t n = 0;
    for (uint64_t rid : t->FullScan()) {
      PROVLIN_ASSIGN_OR_RETURN(Row row, t->Get(rid));
      if (row[0] == run_datum) ++n;
    }
    return n;
  };
  if (const Segment* seg = s->SealedSegFor(tables::kXform, *run_sym)) {
    counts.xform_rows = seg->num_rows();
  } else {
    PROVLIN_ASSIGN_OR_RETURN(counts.xform_rows, count_in(s->xform));
  }
  if (const Segment* seg = s->SealedSegFor(tables::kXfer, *run_sym)) {
    counts.xfer_rows = seg->num_rows();
  } else {
    PROVLIN_ASSIGN_OR_RETURN(counts.xfer_rows, count_in(s->xfer));
  }
  PROVLIN_ASSIGN_OR_RETURN(counts.value_rows, count_in(s->val));
  return counts;
}

Result<TraceCounts> TraceStore::CountAllRecords() const {
  TraceCounts counts;
  for (auto& shard : rep_->shards) {
    Shard* s = shard.get();
    Rep::ReadLock data(*rep_, s);
    PROVLIN_RETURN_IF_ERROR(data.status());
    counts.xform_rows += s->xform->num_rows();
    counts.xfer_rows += s->xfer->num_rows();
    counts.value_rows += s->val->num_rows();
    for (const auto& [sym, seg] : s->sealed_xform) {
      counts.xform_rows += seg->num_rows();
    }
    for (const auto& [sym, seg] : s->sealed_xfer) {
      counts.xfer_rows += seg->num_rows();
    }
  }
  return counts;
}

}  // namespace provlin::provenance

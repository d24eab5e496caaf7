#ifndef PROVLIN_COMMON_LOCK_RANK_H_
#define PROVLIN_COMMON_LOCK_RANK_H_

#include <cstdint>

namespace provlin::common {

/// Central registry of lock ranks — the machine-checked form of the
/// DESIGN.md §10/§11/§12/§13 lock inventories. Every Mutex/SharedMutex
/// in the tree is constructed with exactly one of these names (the
/// rank-less constructor is deleted, and tools/lint_provlin.py rejects
/// construction sites under src/ whose initializer does not spell a
/// `LockRank::` enumerator).
///
/// The invariant (enforced at runtime in PROVLIN_LOCK_DEBUG builds, see
/// common/lock_debug.h and DESIGN.md §15): along any one thread's
/// acquisition chain, ranks must STRICTLY INCREASE. A lock acquired
/// first (outermost) therefore carries a numerically smaller rank than
/// every lock acquired while it is held. Acquiring a lock whose rank is
/// ≤ the deepest rank currently held aborts the process with both
/// acquisition sites. The one sanctioned exception is same-rank
/// acquisition under lock_debug::SameRankExemptionScope — used by the
/// interner's address-ordered DualWriterLock, where two instances of
/// the same lock are taken in runtime (address) order.
///
/// Values are spaced so future locks can slot between existing ones
/// without renumbering the tree. Keep this list in the same order as
/// the DESIGN.md lock tables, and add the rank there when adding one
/// here.
enum class LockRank : uint32_t {
  // --- Server tier (outermost: the serving path acquires these before
  //     anything below; DESIGN.md §12 lock inventory). ---
  /// LineageServer::conns_mu_ — live-connection list.
  kServerConnections = 100,
  /// SlowRequestLog::mu_ — structured slow-request log file.
  kServerSlowLog = 130,

  // --- Service tier (DESIGN.md §10). ---
  /// LineageService::ExecuteBatch's stack-local batch-completion latch.
  kServiceBatchLatch = 200,
  /// LineageService::metrics_mu_ — end-of-batch accumulation.
  kServiceMetrics = 210,
  /// tools/loadgen per-connection intended-send-time map (client side
  /// of the serving path; never held with server-process locks).
  kLoadgenConn = 250,

  // --- Shared pools. ---
  /// ThreadPool::mu_ — task queue and shutdown protocol. Never held
  /// while a task runs, so everything a task acquires ranks above it.
  kThreadPool = 300,

  // --- Lineage planning. ---
  /// IndexProjLineage::PlanCache::mu — plan map (builds run outside
  /// it, under the entry's once_flag).
  kPlanCache = 400,
  /// Dataflow::Ports() lazy PortSpace build (static build_mu).
  kDataflowPorts = 450,

  // --- Trace store (DESIGN.md §11: within a shard, ingest_mu <
  //     data_mu; cross-shard locks are never held together). ---
  /// TraceStore::Rep::run_mu — global run sequence numbers.
  kStoreRunSeq = 500,
  /// TraceStore::Shard::ingest_mu — bounded ingest queue, watermarks,
  /// intern cache.
  kShardIngest = 510,
  /// TraceStore::Shard::data_mu — tables, owned WAL, sealed segments.
  kShardData = 520,
  /// Batch fan-out completion latch (FanLatch::mu in trace_store.cc).
  kStoreFanLatch = 540,
  /// ProbeMemo::mu_ — per-batch probe dedup maps. Consulted and filled
  /// in scopes that never overlap a shard lock, but ranked above
  /// data_mu so a future overlap could only nest it inside.
  kProbeMemo = 550,

  // --- Storage. ---
  /// Database::Blobs::mu — blob catalog; sealing takes it under the
  /// owning shard's exclusive data_mu.
  kDatabaseBlobs = 600,

  // --- Identifier layer (interned under shard/plan locks, so it ranks
  //     above all of them; DESIGN.md §10). ---
  /// SymbolTable::mu_. Move assignment locks two instances at this one
  /// rank via the address-ordered DualWriterLock (same-rank exemption).
  kSymbolTable = 700,
  /// IndexDictionary::mu_ — same contract as SymbolTable.
  kIndexDictionary = 710,

  // --- Observability leaves (innermost: instrumented code may hold
  //     any lock above when these are taken; they call out to nothing). ---
  /// Tracer::mu_ — span ring buffer.
  kTracer = 880,
  /// MetricsRegistry::mu_ — instrument maps. First-call GetCounter /
  /// GetGauge / GetHistogram statics may run under arbitrary locks, so
  /// this is the deepest rank in the tree.
  kMetricsRegistry = 900,

  // --- Tests only: generic ranks for fixtures that need an ordered
  //     pair/triple without touching production ranks. ---
  kTestOuter = 960,
  kTestMiddle = 970,
  kTestInner = 980,
};

/// The registered name of a rank, for diagnostics ("shard.data_mu").
/// Returns "unregistered" for a value outside the registry — which the
/// PROVLIN_LOCK_DEBUG abort message surfaces loudly.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kServerConnections:
      return "server.conns_mu";
    case LockRank::kServerSlowLog:
      return "server.slow_log_mu";
    case LockRank::kServiceBatchLatch:
      return "service.batch_latch_mu";
    case LockRank::kServiceMetrics:
      return "service.metrics_mu";
    case LockRank::kLoadgenConn:
      return "loadgen.conn_mu";
    case LockRank::kThreadPool:
      return "thread_pool.mu";
    case LockRank::kPlanCache:
      return "lineage.plan_cache_mu";
    case LockRank::kDataflowPorts:
      return "workflow.ports_build_mu";
    case LockRank::kStoreRunSeq:
      return "trace_store.run_mu";
    case LockRank::kShardIngest:
      return "trace_store.shard.ingest_mu";
    case LockRank::kShardData:
      return "trace_store.shard.data_mu";
    case LockRank::kStoreFanLatch:
      return "trace_store.fan_latch_mu";
    case LockRank::kProbeMemo:
      return "trace_store.probe_memo_mu";
    case LockRank::kDatabaseBlobs:
      return "database.blobs_mu";
    case LockRank::kSymbolTable:
      return "interner.symbol_table_mu";
    case LockRank::kIndexDictionary:
      return "interner.index_dictionary_mu";
    case LockRank::kTracer:
      return "tracing.tracer_mu";
    case LockRank::kMetricsRegistry:
      return "metrics.registry_mu";
    case LockRank::kTestOuter:
      return "test.outer";
    case LockRank::kTestMiddle:
      return "test.middle";
    case LockRank::kTestInner:
      return "test.inner";
  }
  return "unregistered";
}

}  // namespace provlin::common

#endif  // PROVLIN_COMMON_LOCK_RANK_H_

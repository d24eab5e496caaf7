#ifndef PROVLIN_LINEAGE_SERVICE_H_
#define PROVLIN_LINEAGE_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "lineage/engine.h"
#include "provenance/trace_store.h"

namespace provlin::lineage {

/// Tuning knobs for the batch lineage service.
struct ServiceOptions {
  /// Fixed worker-pool size.
  size_t num_threads = 4;
  /// When set, requests of one batch that resolve to the same plan
  /// (same engine, target, index, and interest set; the runs may differ)
  /// are chained onto one worker task. The first builds the plan
  /// template if it is missing and fills the batch's probe memo; the
  /// rest then run after it instead of blocking on that build or racing
  /// it for the same probes on other workers. The key stays the whole
  /// plan, not the template's (target, |q|): requests on one target
  /// share a template, and grouping by it would chain them all onto one
  /// worker. Turning it off dispatches every request independently,
  /// which maximizes parallelism (and template-cache contention —
  /// exercised by tests).
  bool group_same_plan = true;
  /// When set, all workers of one batch share a probe memo: identical
  /// trace probes (same kind, run, port, index) issued by different
  /// requests are answered from memory after the first one pays the
  /// storage probes. Request answers are unchanged — only duplicated
  /// physical work disappears. Reported probe/descent counts become
  /// batch-composition-dependent, so count-asserting tests turn this
  /// off.
  bool dedupe_probes = true;
};

/// One entry of a batch: which engine answers which request. Engines are
/// borrowed, must outlive the batch call, and must be safe for
/// concurrent Query() (both in-tree engines are).
struct ServiceRequest {
  const LineageEngine* engine = nullptr;
  LineageRequest request;
  /// Record the EXPLAIN of this request's execution into
  /// ServiceResponse::explain (the server marks requests this way while
  /// its slow-request log is open).
  bool explain = false;
};

/// Per-request outcome; ExecuteBatch aligns them positionally with the
/// submitted batch.
struct ServiceResponse {
  Status status;
  LineageAnswer answer;  // meaningful iff status.ok()
  /// Time between batch submission and the request starting to execute
  /// (ExecuteBatch only).
  double queue_wait_ms = 0.0;
  /// Wall time of the engine Query() call itself (set for failures too,
  /// unlike answer.timing which only exists on success).
  double exec_ms = 0.0;
  /// Worker thread (0 .. num_threads-1) that executed the request
  /// (ExecuteBatch only).
  size_t worker = 0;
  /// Rows/entries the storage layer examined for this request (the
  /// executing thread's ThreadStats delta around the Query() call).
  uint64_t rows_examined = 0;
  /// Per-shard / per-tier physical probe work (DESIGN.md §14), filled
  /// through the ProbeBreakdownScope ExecuteRequest installs.
  provenance::ProbeBreakdown breakdown;
  /// EXPLAIN record of this execution, filled through the ExplainScope
  /// ExecuteRequest installs for a request marked `explain` — by engines
  /// that keep one (IndexProj); empty otherwise.
  std::optional<ExplainResult> explain;
};

/// Executes one request on the calling thread: the body every
/// ExecuteBatch worker runs per request, and all the server runs per
/// request. Installs the request's ProbeBreakdownScope and, for a
/// request marked `explain`, its ExplainScope; times the engine call;
/// takes rows_examined from the thread's storage stats; and counts
/// service/requests and service/failed_requests. Its probes share
/// whatever ProbeMemo the calling thread has installed (the server
/// installs none). Leaves queue_wait_ms and worker at 0.
ServiceResponse ExecuteRequest(const ServiceRequest& request);

/// Cumulative counters of one service instance — a value snapshot,
/// consumable by the CLI (`lineage --threads N`) and the service bench.
/// The process-wide registry keeps only what no other tier counts:
/// service/{requests,failed_requests} (bumped by ExecuteRequest, so the
/// server's requests count too), service/batches and the queue-wait and
/// batch-wall histograms. Probes, descents and plan-cache hits are the
/// engines' lineage/* counters and memo traffic is provenance/memo_*;
/// in a process whose only executor is one service their deltas equal
/// the fields here.
struct ServiceMetrics {
  uint64_t batches = 0;
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  /// Requests whose IndexProj plan was served from the shared cache.
  uint64_t plan_cache_hits = 0;
  /// Trace probes issued by service workers (sum over per-thread counts).
  uint64_t trace_probes = 0;
  /// Physical B+-tree descents behind those probes (amortized by batched
  /// probe execution; see LineageTiming::trace_descents).
  uint64_t trace_descents = 0;
  /// Of the probe-memo consultations counted in probe_memo_lookups, how
  /// many were answered from the shared per-batch memo instead of the
  /// storage layer (both zero when ServiceOptions::dedupe_probes is off).
  uint64_t probe_memo_hits = 0;
  uint64_t probe_memo_lookups = 0;
  double total_queue_wait_ms = 0.0;
  /// Sum of per-request execution time (excludes queue wait).
  double total_exec_ms = 0.0;
  /// Wall time of the most recent batch, submission to last response.
  double last_batch_wall_ms = 0.0;
  /// Trace probes per worker thread, indexed by worker id.
  std::vector<uint64_t> per_thread_probes;

  /// Plan-cache hit rate over all requests so far (0 when no requests).
  double plan_cache_hit_rate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(plan_cache_hits) /
                     static_cast<double>(requests);
  }

  std::string ToString() const;
};

/// Concurrent batch lineage query service: accepts a batch of requests
/// and executes them on a fixed-size thread pool against read-only
/// engines, each through ExecuteRequest. The batch's requests share one
/// probe memo, and requests on one plan chain onto one worker, so the
/// batch pays each plan build and each distinct probe once; independent
/// plans run on all cores. Its callers are `lineage --threads N`, the
/// service bench and the benchmark's in-process reference; the server
/// executes each request on its connection's thread instead.
///
/// The trace stores behind the engines must be quiescent while a batch
/// executes (no concurrent capture); the storage read path is designed
/// to be shared (per-thread stats, internally synchronized dictionaries).
class LineageService {
 public:
  explicit LineageService(ServiceOptions options = {});

  /// Executes the whole batch and blocks until every request finished.
  /// Responses align positionally with `batch`. Per-request failures are
  /// reported in the response status — one bad request never poisons the
  /// batch. Thread-safe; concurrent batches share the pool.
  std::vector<ServiceResponse> ExecuteBatch(
      const std::vector<ServiceRequest>& batch) EXCLUDES(metrics_mu_);

  /// Snapshot of this service's cumulative counters.
  ServiceMetrics metrics() const EXCLUDES(metrics_mu_);
  void ResetMetrics() EXCLUDES(metrics_mu_);

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  ServiceOptions options_;
  common::ThreadPool pool_;
  /// Leaf lock (DESIGN.md §10 lock order): taken only after a batch's
  /// workers have quiesced, never while holding or acquiring the plan
  /// cache, interner, or pool locks.
  mutable common::Mutex metrics_mu_{common::LockRank::kServiceMetrics};
  ServiceMetrics metrics_ GUARDED_BY(metrics_mu_);
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_SERVICE_H_

#ifndef PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_
#define PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/annotations.h"
#include "common/interner.h"
#include "common/sync.h"
#include "common/result.h"
#include "lineage/engine.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"
#include "workflow/depth_propagation.h"

namespace provlin::lineage {

/// One generated trace query Q(P, X_i, p_i) (§3.3) — or, for
/// workflow-input sources, a probe of the source rows. A source query
/// that was reached through a consuming port records it (via_*): at
/// execution time the consumer's trace rows give the granularity at
/// which the input was actually consumed, so coarse queries enumerate
/// exactly the element bindings the naive traversal discovers.
///
/// Queries are stored in id space: the planner interns every name it
/// touches while walking the spec graph, so executing a plan probes the
/// trace with integer keys and no per-run string resolution.
struct TraceQuery {
  common::SymbolId processor = common::kNoSymbol;
  common::SymbolId port = common::kNoSymbol;
  Index index;
  bool workflow_source = false;
  /// Consumer of the workflow input, if any (kNoSymbol otherwise).
  common::SymbolId via_processor = common::kNoSymbol;
  common::SymbolId via_port = common::kNoSymbol;

  std::string ToString(const provenance::TraceStore& store) const {
    return "Q(" + store.NameOf(processor) + ", " + store.NameOf(port) + ", " +
           index.ToString() + ")";
  }

  /// EXPLAIN step kind: "consume", "source", or "source-via".
  const char* Kind() const {
    if (!workflow_source) return "consume";
    return via_processor != common::kNoSymbol ? "source-via" : "source";
  }
};

/// The product of the s1 spec-graph traversal: the focused trace queries
/// plus traversal statistics. Plans depend only on (workflow, target,
/// index, 𝒫) — not on any run — so they are cached and shared across
/// queries, across runs, and across threads (§3, §3.4).
struct LineagePlan {
  std::vector<TraceQuery> queries;
  uint64_t graph_steps = 0;
};

/// The paper's contribution: Alg. 2 INDEXPROJ. Lineage queries are
/// answered by traversing the *workflow specification graph*, applying
/// the index projection rule (Def. 4) at each processor, and touching the
/// trace only to retrieve the values of bindings at interesting
/// processors. Query cost is therefore (near-)constant in the provenance
/// path length and in the collection sizes — the scaling behaviour
/// evaluated in §4.
///
/// The plan cache is a thread-safe shared cache: concurrent queries for
/// the same (target, index, 𝒫) key synchronize so the spec-graph
/// traversal runs exactly once and every other query reuses the plan —
/// the amortization the batch LineageService leans on.
class IndexProjLineage : public LineageEngine {
 public:
  /// `dataflow` must be flattened + validated; `store` must outlive the
  /// engine. Depth propagation (Alg. 1) runs once here.
  static Result<IndexProjLineage> Create(
      std::shared_ptr<const workflow::Dataflow> dataflow,
      const provenance::TraceStore* store);

  std::string_view name() const override { return "indexproj"; }

  /// s1 only: builds (or fetches from the shared cache) the plan for a
  /// query. The returned plan is kept alive by the shared_ptr even if
  /// the cache is cleared concurrently. `cache_hit`, when non-null, is
  /// set to whether the plan came from the cache.
  Result<std::shared_ptr<const LineagePlan>> Plan(
      const workflow::PortRef& target, const Index& q,
      const InterestSet& interest, bool* cache_hit = nullptr) const;

  /// Full query: s1 once (cached, shared), then s2 for every run in
  /// scope as one batched execution (§3.4). With an ExplainScope active
  /// on the calling thread, the execution also records its EXPLAIN.
  Result<LineageAnswer> Query(const LineageRequest& request) const override;

  /// EXPLAIN: Query() with a step recorder attached. `*explain` receives
  /// the record of the execution whose answer is returned.
  Result<LineageAnswer> Explain(const LineageRequest& request,
                                ExplainResult* explain) const;

  /// Wipes the plan cache (used by benches to measure cold planning).
  /// Safe under concurrent queries: in-flight plans stay alive through
  /// their shared_ptr.
  void ClearPlanCache();
  size_t plan_cache_size() const;

  /// Monotonic counters: how many plans were actually built (one per
  /// distinct key under contention) vs. served from the cache.
  uint64_t plans_built() const;
  uint64_t plan_cache_hits() const;

  const workflow::DepthMap& depths() const { return depths_; }

 private:
  /// One cache slot. `once` arbitrates concurrent builders of the same
  /// key: the winner runs the s1 traversal, everyone else blocks briefly
  /// and then reads the finished plan. `build_status` and `plan` are
  /// synchronized by the once_flag protocol, not a mutex: call_once
  /// publishes them with a happens-before edge to every later caller,
  /// and they are immutable afterwards — so they carry no GUARDED_BY.
  struct CacheEntry {
    std::once_flag once;
    Status build_status;
    LineagePlan plan;
  };

  /// Shared, internally synchronized plan cache. Lives behind a
  /// unique_ptr so the engine stays movable (single-threaded moves only;
  /// moving while queries are in flight is outside the contract).
  /// Lock order: the plan-cache mutex nests *inside* any service-level
  /// lock and *outside* the interner's (DESIGN.md §10); exactly-one
  /// build per key and safe concurrent Clear both hang off `entries`
  /// being reachable only under `mu` (the shared_ptr keeps evicted
  /// entries alive for in-flight readers).
  struct PlanCache {
    mutable common::SharedMutex mu{common::LockRank::kPlanCache};
    std::map<std::vector<uint64_t>, std::shared_ptr<CacheEntry>> entries
        GUARDED_BY(mu);
    std::atomic<uint64_t> builds{0};
    std::atomic<uint64_t> hits{0};

    /// Failed-build eviction (REQUIRES the write lock): removes `entry`
    /// under `key` iff it is still the mapped slot, so a concurrent
    /// Clear()+rebuild is never clobbered.
    void EraseEntryIfCurrent(const std::vector<uint64_t>& key,
                             const std::shared_ptr<CacheEntry>& entry)
        REQUIRES(mu);
  };

  IndexProjLineage(std::shared_ptr<const workflow::Dataflow> dataflow,
                   workflow::DepthMap depths,
                   const provenance::TraceStore* store)
      : dataflow_(std::move(dataflow)),
        depths_(std::move(depths)),
        store_(store),
        cache_(std::make_unique<PlanCache>()) {}

  Result<LineagePlan> BuildPlan(const workflow::PortRef& target,
                                const Index& q,
                                const InterestSet& interest) const;

  /// s2: every probe the plan will issue is known up front, so the
  /// whole plan — across every run in scope — flattens into one
  /// producing batch plus one consuming batch before per-query assembly
  /// (which walks runs then queries). The run-qualified probes let a
  /// sharded store fan the batch out by owning shard. `explain`, when
  /// non-null, holds one step per plan query and is credited with each
  /// step's probes, rows and bindings.
  Status ExecutePlan(const LineagePlan& plan,
                     const std::vector<std::string>& runs,
                     std::vector<LineageBinding>* bindings,
                     ExplainResult* explain) const;

  /// Plan cache key: (target processor, target port, index id, resolved
  /// interest ids) — a packed integer vector instead of a concatenated
  /// string, so cache probes never hash plan-sized strings.
  std::vector<uint64_t> MakePlanKey(const workflow::PortRef& target,
                                    const Index& q,
                                    const InterestSet& interest) const;

  std::shared_ptr<const workflow::Dataflow> dataflow_;
  workflow::DepthMap depths_;
  const provenance::TraceStore* store_;
  std::unique_ptr<PlanCache> cache_;
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_

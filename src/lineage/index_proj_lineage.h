#ifndef PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_
#define PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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
/// Queries are stored in id space: the template build interns every spec
/// name it reaches, so executing a plan probes the trace with integer
/// keys and no per-run string resolution.
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

  bool operator==(const TraceQuery& o) const {
    return processor == o.processor && port == o.port && index == o.index &&
           workflow_source == o.workflow_source &&
           via_processor == o.via_processor && via_port == o.via_port;
  }
};

/// The s1 product for one request: the focused trace queries plus
/// traversal statistics. It is instantiated per request from a cached
/// plan template (below) that depends only on the target and |q|, not
/// on the index values, 𝒫 or any run — so one spec-graph walk serves
/// every index, interest set, run and thread (§3, §3.4).
struct LineagePlan {
  std::vector<TraceQuery> queries;
  /// Steps of the template's walk: a property of (target, capped |q|).
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
/// s1 runs once per (target, |q|). Projection (Def. 4) cuts an
/// (offset, length) slice of q, so the walk's shape depends on |q|
/// alone, and 𝒫 only decides which visited ports emit a query. The plan
/// cache therefore holds one template per (target, |q| capped at the
/// longest slot end): the walk's candidate queries as slices of q, for
/// every processor. Each request instantiates it, keeping the candidates
/// in 𝒫 and cutting q, into the plan the walk over its own q and 𝒫
/// would produce. The cache is thread-safe and shared: concurrent
/// queries on one key synchronize so the walk runs exactly once.
class IndexProjLineage : public LineageEngine {
 public:
  /// `dataflow` must be flattened + validated; `store` must outlive the
  /// engine. Depth propagation (Alg. 1) runs once here.
  static Result<IndexProjLineage> Create(
      std::shared_ptr<const workflow::Dataflow> dataflow,
      const provenance::TraceStore* store);

  std::string_view name() const override { return "indexproj"; }

  /// s1 only: the plan of one query, instantiated from the shared
  /// template of (target, |q|), which is built on first use. A target
  /// the dataflow lacks is NotFound, and neither it nor an unknown 𝒫
  /// name is interned. `cache_hit`, when non-null, is set to whether the
  /// template came from the cache.
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

  /// Wipes the template cache (used by benches to measure cold
  /// planning). Safe under concurrent queries: in-flight templates stay
  /// alive through their shared_ptr.
  void ClearPlanCache();
  size_t plan_cache_size() const;

  /// Monotonic counters: how many templates were actually built (one
  /// per distinct key under contention) vs. served from the cache.
  uint64_t plans_built() const;
  uint64_t plan_cache_hits() const;

  const workflow::DepthMap& depths() const { return depths_; }

 private:
  /// A fragment q[offset, offset + length) of the request index. The
  /// walk's root carries the whole of q (length kToEnd) at any |q|.
  struct Slice {
    static constexpr uint32_t kToEnd = UINT32_MAX;
    uint32_t offset = 0;
    uint32_t length = kToEnd;

    bool operator==(const Slice& o) const {
      return offset == o.offset && length == o.length;
    }
  };

  /// One trace query the walk can emit, before q and 𝒫 are known: its
  /// index is left empty, to be cut from q by `slice`.
  struct Candidate {
    TraceQuery query;
    Slice slice;

    bool operator==(const Candidate& o) const {
      return query == o.query && slice == o.slice;
    }
  };

  /// The Alg. 2 walk for one (target, capped |q|), done once in id space
  /// and for every processor: each candidate query in walk order, those
  /// with equal slices merged.
  struct PlanTemplate {
    std::vector<Candidate> candidates;
    uint64_t graph_steps = 0;
  };

  class TemplateBuilder;  // the s1 walk in slice space (.cc)

  /// (target processor, target port, |q| capped at length_cap_).
  using PlanKey = std::array<uint64_t, 3>;

  /// One cache slot. `once` arbitrates concurrent builders of the same
  /// key: the winner runs the s1 walk, everyone else blocks briefly and
  /// then reads the finished template. `build_status` and `plan` are
  /// synchronized by the once_flag protocol, not a mutex: call_once
  /// publishes them with a happens-before edge to every later caller,
  /// and they are immutable afterwards — so they carry no GUARDED_BY.
  struct CacheEntry {
    std::once_flag once;
    Status build_status;
    PlanTemplate plan;
  };

  /// Shared, internally synchronized template cache, at most
  /// (targets × (length_cap_ + 1)) entries. Lives behind a unique_ptr so
  /// the engine stays movable (single-threaded moves only; moving while
  /// queries are in flight is outside the contract).
  /// Lock order: the plan-cache mutex nests *inside* any service-level
  /// lock and *outside* the interner's (DESIGN.md §10); exactly-one
  /// build per key and safe concurrent Clear both hang off `entries`
  /// being reachable only under `mu` (the shared_ptr keeps evicted
  /// entries alive for in-flight readers).
  struct PlanCache {
    mutable common::SharedMutex mu{common::LockRank::kPlanCache};
    std::map<PlanKey, std::shared_ptr<CacheEntry>> entries GUARDED_BY(mu);
    std::atomic<uint64_t> builds{0};
    std::atomic<uint64_t> hits{0};

    /// Failed-build eviction (REQUIRES the write lock): removes `entry`
    /// under `key` iff it is still the mapped slot, so a concurrent
    /// Clear()+rebuild is never clobbered.
    void EraseEntryIfCurrent(const PlanKey& key,
                             const std::shared_ptr<CacheEntry>& entry)
        REQUIRES(mu);
  };

  IndexProjLineage(std::shared_ptr<const workflow::Dataflow> dataflow,
                   workflow::DepthMap depths, size_t length_cap,
                   const provenance::TraceStore* store)
      : dataflow_(std::move(dataflow)),
        depths_(std::move(depths)),
        length_cap_(length_cap),
        store_(store),
        cache_(std::make_unique<PlanCache>()) {}

  Result<PlanTemplate> BuildTemplate(const workflow::PortRef& target,
                                     size_t length) const;

  /// The plan of one request: the template's candidates whose processor
  /// is in 𝒫, each with its slice cut from q, minus repeats — distinct
  /// slices cut equal indices where q repeats a component.
  static LineagePlan Instantiate(const PlanTemplate& plan, const Index& q,
                                 const InterestIds& interest);

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

  /// Template cache key. Fails with NotFound, interning nothing, when
  /// the dataflow has no port `target`.
  Result<PlanKey> MakePlanKey(const workflow::PortRef& target,
                              const Index& q) const;

  std::shared_ptr<const workflow::Dataflow> dataflow_;
  workflow::DepthMap depths_;
  /// The longest slot end (offset + length) of any processor: no
  /// projection reads q past it, so every longer q walks alike.
  size_t length_cap_;
  const provenance::TraceStore* store_;
  std::unique_ptr<PlanCache> cache_;
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_INDEX_PROJ_LINEAGE_H_

#include "lineage/index_proj_lineage.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/tracing.h"
#include "lineage/binding_retrieval.h"
#include "lineage/index_projection.h"

namespace provlin::lineage {

using common::IndexId;
using common::kNoSymbol;
using common::SymbolId;
using provenance::XformRecord;
using workflow::Dataflow;
using workflow::kWorkflowProcessor;
using workflow::PortRef;
using workflow::Processor;

Result<IndexProjLineage> IndexProjLineage::Create(
    std::shared_ptr<const Dataflow> dataflow,
    const provenance::TraceStore* store) {
  PROVLIN_ASSIGN_OR_RETURN(workflow::DepthMap depths,
                           workflow::PropagateDepths(*dataflow));
  return IndexProjLineage(std::move(dataflow), std::move(depths), store);
}

namespace {

/// Alg. 2 traversal state. The traversal itself walks the spec graph by
/// name (processor/port names come from the Dataflow), but every emitted
/// TraceQuery and every dedup key is interned immediately: the planner
/// pays the string→id cost once at plan time so that plan execution and
/// re-execution (multi-run, cached plans) are pure integer work.
class Planner {
 public:
  Planner(const Dataflow& flow, const workflow::DepthMap& depths,
          const InterestSet& interest, const provenance::TraceStore& store)
      : flow_(flow),
        depths_(depths),
        store_(store),
        // Interest names are interned up front (the planner interns
        // every spec name it walks anyway), so the per-visit interest
        // check is the id-space IsInteresting overload.
        interest_(InterestIds::Resolve(
            interest, [&store](const std::string& name) {
              return std::optional<SymbolId>(store.Intern(name));
            })) {}

  /// Y ∈ O_P case: apply the projection rule, emit trace queries at
  /// interesting processors, continue through the inputs. `via` names
  /// the consuming input port the traversal arrived through (null for a
  /// direct query on a workflow input).
  Status VisitOutput(const PortRef& port, const Index& q,
                     const PortRef* via = nullptr) {
    ++steps_;
    SymbolId via_proc = kNoSymbol;
    SymbolId via_port = kNoSymbol;
    if (via != nullptr) {
      via_proc = store_.Intern(via->processor);
      via_port = store_.Intern(via->port);
    }
    SymbolId proc_sym = store_.Intern(port.processor);
    auto key = std::make_tuple(proc_sym, store_.Intern(port.port),
                               store_.InternIndex(q), via_proc, via_port,
                               /*output=*/true);
    if (!visited_.insert(key).second) return Status::OK();
    if (port.processor == kWorkflowProcessor) {
      // Reached a top-level workflow input: a lineage source.
      if (IsInteresting(interest_, proc_sym)) {
        TraceQuery tq;
        tq.processor = proc_sym;
        tq.port = store_.Intern(port.port);
        tq.index = q;
        tq.workflow_source = true;
        tq.via_processor = via_proc;
        tq.via_port = via_port;
        AddQuery(std::move(tq));
      }
      return Status::OK();
    }
    const Processor* proc = flow_.FindProcessor(port.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + port.processor +
                              "' in workflow '" + flow_.name() + "'");
    }
    const workflow::ProcessorDepths& pd = depths_.ForProcessor(proc->name);
    std::vector<Index> projected = ProjectOutputIndex(*proc, pd, q);
    bool interesting = IsInteresting(interest_, proc_sym);
    for (size_t i = 0; i < proc->inputs.size(); ++i) {
      if (interesting) {
        TraceQuery tq;
        tq.processor = proc_sym;
        tq.port = store_.Intern(proc->inputs[i].name);
        tq.index = projected[i];
        AddQuery(std::move(tq));
      }
      PROVLIN_RETURN_IF_ERROR(VisitInput(
          PortRef{proc->name, proc->inputs[i].name}, projected[i]));
    }
    return Status::OK();
  }

  /// Y ∉ O_P case: follow the arcs backwards with the index unchanged.
  Status VisitInput(const PortRef& port, const Index& p) {
    ++steps_;
    auto key = std::make_tuple(store_.Intern(port.processor),
                               store_.Intern(port.port),
                               store_.InternIndex(p), kNoSymbol, kNoSymbol,
                               /*output=*/false);
    if (!visited_.insert(key).second) return Status::OK();
    for (const workflow::Arc* arc : flow_.ArcsInto(port)) {
      PROVLIN_RETURN_IF_ERROR(VisitOutput(arc->src, p, &port));
    }
    return Status::OK();
  }

  LineagePlan TakePlan() {
    LineagePlan plan;
    plan.queries = std::move(queries_);
    plan.graph_steps = steps_;
    return plan;
  }

 private:
  void AddQuery(TraceQuery q) {
    auto key = std::make_tuple(q.processor, q.port, store_.InternIndex(q.index),
                               q.via_processor, q.via_port);
    if (query_keys_.insert(key).second) queries_.push_back(std::move(q));
  }

  using VisitKey =
      std::tuple<SymbolId, SymbolId, IndexId, SymbolId, SymbolId, bool>;
  using QueryKey = std::tuple<SymbolId, SymbolId, IndexId, SymbolId, SymbolId>;

  const Dataflow& flow_;
  const workflow::DepthMap& depths_;
  const provenance::TraceStore& store_;
  InterestIds interest_;
  std::set<VisitKey> visited_;
  std::set<QueryKey> query_keys_;
  std::vector<TraceQuery> queries_;
  uint64_t steps_ = 0;
};

}  // namespace

std::vector<uint64_t> IndexProjLineage::MakePlanKey(
    const PortRef& target, const Index& q, const InterestSet& interest) const {
  std::vector<uint64_t> key;
  key.reserve(3 + interest.size());
  key.push_back(store_->Intern(target.processor));
  key.push_back(store_->Intern(target.port));
  key.push_back(store_->InternIndex(q));
  std::vector<uint64_t> interest_syms;
  interest_syms.reserve(interest.size());
  for (const std::string& p : interest) {
    interest_syms.push_back(store_->Intern(p));
  }
  std::sort(interest_syms.begin(), interest_syms.end());
  key.insert(key.end(), interest_syms.begin(), interest_syms.end());
  return key;
}

Result<LineagePlan> IndexProjLineage::BuildPlan(
    const PortRef& target, const Index& q,
    const InterestSet& interest) const {
  Planner planner(*dataflow_, depths_, interest, *store_);
  if (target.processor == kWorkflowProcessor) {
    if (dataflow_->FindWorkflowOutput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitInput(target, q));
    } else if (dataflow_->FindWorkflowInput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitOutput(target, q));
    } else {
      return Status::NotFound("no workflow port '" + target.port + "'");
    }
  } else {
    const Processor* proc = dataflow_->FindProcessor(target.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + target.processor + "'");
    }
    if (proc->FindOutput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitOutput(target, q));
    } else if (proc->FindInput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitInput(target, q));
    } else {
      return Status::NotFound("no port " + target.ToString());
    }
  }
  return planner.TakePlan();
}

Result<std::shared_ptr<const LineagePlan>> IndexProjLineage::Plan(
    const PortRef& target, const Index& q, const InterestSet& interest,
    bool* cache_hit) const {
  std::vector<uint64_t> key = MakePlanKey(target, q, interest);

  // Fast path: shared lock, entry already present.
  std::shared_ptr<CacheEntry> entry;
  {
    common::ReaderLock lock(cache_->mu);
    auto it = cache_->entries.find(key);
    if (it != cache_->entries.end()) entry = it->second;
  }
  if (entry == nullptr) {
    common::WriterLock lock(cache_->mu);
    auto [it, inserted] = cache_->entries.try_emplace(key);
    if (inserted) it->second = std::make_shared<CacheEntry>();
    entry = it->second;
  }

  // Exactly one thread per entry runs the s1 traversal; contenders block
  // here until the plan (or its failure) is recorded.
  bool built_here = false;
  std::call_once(entry->once, [&] {
    built_here = true;
    PROVLIN_TRACE_SPAN_VAR(span, "indexproj/plan_build");
    if (span.active()) span.SetArgs("target=" + target.ToString());
    cache_->builds.fetch_add(1, std::memory_order_relaxed);
    static auto* builds = common::metrics::GetCounter("lineage/plan_builds");
    builds->Increment();
    Result<LineagePlan> plan = BuildPlan(target, q, interest);
    if (plan.ok()) {
      entry->plan = std::move(plan).value();
    } else {
      entry->build_status = plan.status();
    }
  });
  if (cache_hit != nullptr) *cache_hit = !built_here;
  if (!built_here) cache_->hits.fetch_add(1, std::memory_order_relaxed);

  if (!entry->build_status.ok()) {
    // Evict failed builds so the error is not sticky (e.g. a target that
    // becomes valid after a different workflow is loaded elsewhere).
    Status st = entry->build_status;
    common::WriterLock lock(cache_->mu);
    cache_->EraseEntryIfCurrent(key, entry);
    return st;
  }
  return std::shared_ptr<const LineagePlan>(entry, &entry->plan);
}

void IndexProjLineage::PlanCache::EraseEntryIfCurrent(
    const std::vector<uint64_t>& key,
    const std::shared_ptr<CacheEntry>& entry) {
  auto it = entries.find(key);
  if (it != entries.end() && it->second == entry) entries.erase(it);
}

void IndexProjLineage::ClearPlanCache() {
  common::WriterLock lock(cache_->mu);
  cache_->entries.clear();
}

size_t IndexProjLineage::plan_cache_size() const {
  common::ReaderLock lock(cache_->mu);
  return cache_->entries.size();
}

uint64_t IndexProjLineage::plans_built() const {
  return cache_->builds.load(std::memory_order_relaxed);
}

uint64_t IndexProjLineage::plan_cache_hits() const {
  return cache_->hits.load(std::memory_order_relaxed);
}

namespace {

/// Shared per-query assembly of the plain (non-source) case: dedup
/// identical in-bindings repeated across dependency rows (one row exists
/// per (in, out) pair of an event) and append the survivors.
Status AppendConsumedBindings(const provenance::TraceStore& store,
                              const std::string& run,
                              const std::vector<XformRecord>& rows,
                              std::vector<LineageBinding>* bindings) {
  std::set<std::tuple<SymbolId, IndexId, int64_t>> seen;
  for (const XformRecord& row : rows) {
    if (!row.has_in) continue;
    auto key = std::make_tuple(row.in_port, store.InternIndex(row.in_index),
                               row.in_value);
    if (!seen.insert(key).second) continue;
    PROVLIN_RETURN_IF_ERROR(AppendInputBinding(store, run, row, bindings));
  }
  return Status::OK();
}

/// Shared assembly of the workflow-source case reached through a
/// consumer: the consumer's trace rows tell at which granularity the
/// input elements were actually consumed — the same indices the naive
/// traversal arrives with — and the source rows are re-filtered per
/// arrival index.
Status AppendSourceViaConsumer(const provenance::TraceStore& store,
                               const std::string& run,
                               const std::vector<XformRecord>& src_rows,
                               const std::vector<XformRecord>& consumed,
                               std::vector<LineageBinding>* bindings) {
  std::set<IndexId> arrival_keys;
  std::vector<Index> arrivals;
  for (const XformRecord& row : consumed) {
    if (!row.has_in) continue;
    if (arrival_keys.insert(store.InternIndex(row.in_index)).second) {
      arrivals.push_back(row.in_index);
    }
  }
  for (const Index& r : arrivals) {
    PROVLIN_RETURN_IF_ERROR(
        AppendSourceBindings(store, run, src_rows, r, bindings));
  }
  return Status::OK();
}

}  // namespace

Status IndexProjLineage::ExecutePlan(const LineagePlan& plan,
                                     const std::vector<std::string>& runs,
                                     std::vector<LineageBinding>* bindings,
                                     ExplainResult* explain) const {
  PROVLIN_TRACE_SPAN_VAR(span, "indexproj/s2_run");
  if (span.active()) {
    span.SetArgs("runs=" + std::to_string(runs.size()) +
                 " queries=" + std::to_string(plan.queries.size()));
  }
  // Every probe the plan issues is determined by the plan alone, so the
  // whole of s2 — across *all* runs in scope — flattens into one
  // producing batch (source queries) and one consuming batch
  // (via-consumer probes + plain queries) before any result is
  // consumed. Probes carry their run, so a sharded store groups the
  // batch by owning shard and fans the sub-batches out concurrently.
  constexpr size_t kNone = static_cast<size_t>(-1);
  struct RunSlots {
    const std::string* run = nullptr;
    std::vector<size_t> producing_slot;
    std::vector<size_t> consuming_slot;
  };
  std::vector<RunSlots> per_run;
  std::vector<provenance::PortProbe> producing;
  std::vector<provenance::PortProbe> consuming;
  for (const std::string& run : runs) {
    // A run the trace never recorded has no rows for any query.
    auto run_sym = store_->LookupSymbol(run);
    if (!run_sym.has_value()) continue;
    RunSlots slots;
    slots.run = &run;
    slots.producing_slot.assign(plan.queries.size(), kNone);
    slots.consuming_slot.assign(plan.queries.size(), kNone);
    for (size_t i = 0; i < plan.queries.size(); ++i) {
      const TraceQuery& q = plan.queries[i];
      if (q.workflow_source) {
        slots.producing_slot[i] = producing.size();
        producing.push_back({*run_sym, q.processor, q.port, q.index});
        if (q.via_processor != kNoSymbol) {
          slots.consuming_slot[i] = consuming.size();
          consuming.push_back({*run_sym, q.via_processor, q.via_port, q.index});
        }
      } else {
        slots.consuming_slot[i] = consuming.size();
        consuming.push_back({*run_sym, q.processor, q.port, q.index});
      }
    }
    per_run.push_back(std::move(slots));
  }

  std::vector<std::vector<XformRecord>> produced;
  if (!producing.empty()) {
    PROVLIN_ASSIGN_OR_RETURN(produced, store_->FindProducingBatch(producing));
  }
  std::vector<std::vector<XformRecord>> consumed;
  if (!consuming.empty()) {
    PROVLIN_ASSIGN_OR_RETURN(consumed, store_->FindConsumingBatch(consuming));
  }

  // Assembly walks runs then queries in plan order. Here each query's
  // rows are still told apart, so an EXPLAIN recorder is credited with
  // the probes, rows and bindings of every step: its share of the two
  // batches, plus the value lookups its own bindings cost.
  static const std::vector<XformRecord> kNoRows;
  for (const RunSlots& slots : per_run) {
    const std::string& run = *slots.run;
    for (size_t i = 0; i < plan.queries.size(); ++i) {
      const TraceQuery& q = plan.queries[i];
      const size_t p = slots.producing_slot[i];
      const size_t c = slots.consuming_slot[i];
      const std::vector<XformRecord>& src_rows =
          p == kNone ? kNoRows : produced[p];
      const std::vector<XformRecord>& consumed_rows =
          c == kNone ? kNoRows : consumed[c];
      const size_t bindings_before = bindings->size();
      const uint64_t probes_before =
          explain != nullptr ? storage::ThisThreadStats().probes() : 0;
      if (!q.workflow_source) {
        PROVLIN_RETURN_IF_ERROR(
            AppendConsumedBindings(*store_, run, consumed_rows, bindings));
      } else if (q.via_processor == kNoSymbol) {
        // Direct query on the workflow input port itself.
        PROVLIN_RETURN_IF_ERROR(
            AppendSourceBindings(*store_, run, src_rows, q.index, bindings));
      } else {
        PROVLIN_RETURN_IF_ERROR(AppendSourceViaConsumer(
            *store_, run, src_rows, consumed_rows, bindings));
      }
      if (explain != nullptr) {
        ExplainStep& step = explain->steps[i];
        const uint64_t issued = (p == kNone ? 0 : 1) + (c == kNone ? 0 : 1);
        step.trace_probes += issued * provenance::OverlapProbeCount(q.index) +
                             storage::ThisThreadStats().probes() -
                             probes_before;
        step.rows += src_rows.size() + consumed_rows.size();
        step.bindings += bindings->size() - bindings_before;
      }
    }
  }
  return Status::OK();
}

Result<LineageAnswer> IndexProjLineage::Query(
    const LineageRequest& request) const {
  PROVLIN_TRACE_SPAN("indexproj/query");
  LineageAnswer answer;

  // s1: one spec-graph traversal, shared by every run in scope — and,
  // through the shared cache, by every concurrent query on the same key.
  WallTimer t1;
  bool cache_hit = false;
  PROVLIN_ASSIGN_OR_RETURN(
      std::shared_ptr<const LineagePlan> plan,
      Plan(request.target, request.index, request.interest, &cache_hit));
  answer.timing.plan_cache_hit = cache_hit;
  answer.timing.t1_ms = t1.ElapsedMillis();
  answer.timing.graph_steps = plan->graph_steps;

  // EXPLAIN records this very execution: one step per plan query,
  // credited by the s2 assembly.
  ExplainResult* explain = nullptr;
  if (std::optional<ExplainResult>* slot = ExplainScope::Active()) {
    explain = &slot->emplace();
    for (const TraceQuery& q : plan->queries) {
      explain->steps.push_back({q.Kind(), q.ToString(*store_)});
    }
  }

  // s2: all runs in one batched execution — one producing + one
  // consuming batch for the whole scope, fanned out across shards by
  // the store. Probe counts come from this thread's counters so
  // concurrent queries don't pollute each other's cost attribution.
  storage::ThreadStats before = storage::ThisThreadStats();
  WallTimer t2;
  PROVLIN_RETURN_IF_ERROR(
      ExecutePlan(*plan, request.runs, &answer.bindings, explain));
  answer.timing.t2_ms = t2.ElapsedMillis();
  answer.timing.trace_probes =
      storage::ThisThreadStats().probes() - before.probes();
  answer.timing.trace_descents =
      storage::ThisThreadStats().descents - before.descents;
  if (explain != nullptr) explain->plan = answer.timing;

  NormalizeBindings(&answer.bindings);
  PublishTiming(name(), answer.timing);
  return answer;
}

Result<LineageAnswer> IndexProjLineage::Explain(const LineageRequest& request,
                                                ExplainResult* explain) const {
  std::optional<ExplainResult> record;
  ExplainScope scope(&record);
  PROVLIN_ASSIGN_OR_RETURN(LineageAnswer answer, Query(request));
  *explain = std::move(*record);
  return answer;
}

}  // namespace provlin::lineage

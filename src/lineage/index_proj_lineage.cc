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
#include "workflow/port_space.h"

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
  size_t length_cap = 0;
  for (const Processor& proc : dataflow->processors()) {
    for (const auto& [port, slot] : depths.ForProcessor(proc.name).slots) {
      length_cap = std::max(length_cap, slot.offset + slot.length);
    }
  }
  return IndexProjLineage(std::move(dataflow), std::move(depths), length_cap,
                          store);
}

namespace {

/// Which side of `target` the walk starts on: true for Y ∈ O_P (a
/// processor output, or a workflow input read as a source), false for an
/// input port (a processor input, or a workflow output).
Result<bool> StartsAtOutput(const Dataflow& flow, const PortRef& target) {
  if (target.processor == kWorkflowProcessor) {
    if (flow.FindWorkflowOutput(target.port) != nullptr) return false;
    if (flow.FindWorkflowInput(target.port) != nullptr) return true;
    return Status::NotFound("no workflow port '" + target.port + "'");
  }
  const Processor* proc = flow.FindProcessor(target.processor);
  if (proc == nullptr) {
    return Status::NotFound("no processor '" + target.processor + "'");
  }
  if (proc->FindOutput(target.port) != nullptr) return true;
  if (proc->FindInput(target.port) != nullptr) return false;
  return Status::NotFound("no port " + target.ToString());
}

}  // namespace

/// Alg. 2 for every q of one length and every 𝒫 at once. Indices are
/// (offset, length) slices of q: projection cuts a slice of a slice and
/// VisitInput passes it on unchanged, so the walk's shape depends on |q|
/// alone. 𝒫 never prunes the walk, so every port Alg. 2 would emit a
/// query at becomes a candidate, tagged with its processor. A revisit is
/// pruned on (port, slice, via). Equal slices cut equal indices, so this
/// prunes no more than a walk over concrete indices does. Where distinct
/// slices cut equal indices (q with repeated components) the walk
/// re-enters a subtree whose queries were all emitted already, because
/// the graph is a DAG, and instantiation drops them again.
class IndexProjLineage::TemplateBuilder {
 public:
  TemplateBuilder(const Dataflow& flow, const workflow::DepthMap& depths,
                  const provenance::TraceStore& store, size_t length)
      : flow_(flow),
        ports_(flow.Ports()),
        depths_(depths),
        store_(store),
        length_(length),
        visited_(ports_.size()) {}

  /// Y ∈ O_P case: apply the projection rule, record a candidate per
  /// input, continue through the inputs. `via` names the consuming input
  /// port the walk arrived through (null for a direct query on a
  /// workflow input).
  Status VisitOutput(const PortRef& port, Slice s,
                     const PortRef* via = nullptr) {
    ++steps_;
    PROVLIN_ASSIGN_OR_RETURN(bool first,
                             FirstVisit(port, /*output=*/true, s, via));
    if (!first) return Status::OK();
    const SymbolId proc_sym = store_.Intern(port.processor);
    if (port.processor == kWorkflowProcessor) {
      // Reached a top-level workflow input: a lineage source.
      TraceQuery tq;
      tq.processor = proc_sym;
      tq.port = store_.Intern(port.port);
      tq.workflow_source = true;
      if (via != nullptr) {
        tq.via_processor = store_.Intern(via->processor);
        tq.via_port = store_.Intern(via->port);
      }
      AddCandidate({std::move(tq), s});
      return Status::OK();
    }
    const Processor* proc = flow_.FindProcessor(port.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + port.processor +
                              "' in workflow '" + flow_.name() + "'");
    }
    const workflow::ProcessorDepths& pd = depths_.ForProcessor(proc->name);
    for (const workflow::Port& in : proc->inputs) {
      TraceQuery tq;
      tq.processor = proc_sym;
      tq.port = store_.Intern(in.name);
      const Slice sub = Project(s, pd, in.name);
      AddCandidate({std::move(tq), sub});
      PROVLIN_RETURN_IF_ERROR(VisitInput(PortRef{proc->name, in.name}, sub));
    }
    return Status::OK();
  }

  /// Y ∉ O_P case: follow the arcs backwards with the slice unchanged.
  Status VisitInput(const PortRef& port, Slice s) {
    ++steps_;
    PROVLIN_ASSIGN_OR_RETURN(bool first,
                             FirstVisit(port, /*output=*/false, s, nullptr));
    if (!first) return Status::OK();
    for (const workflow::Arc* arc : flow_.ArcsInto(port)) {
      PROVLIN_RETURN_IF_ERROR(VisitOutput(arc->src, s, &port));
    }
    return Status::OK();
  }

  PlanTemplate TakeTemplate() {
    PlanTemplate plan;
    plan.candidates = std::move(candidates_);
    plan.graph_steps = steps_;
    return plan;
  }

 private:
  /// One visit of a port; the port itself is the visited_ slot.
  struct Visit {
    bool output;
    Slice slice;
    workflow::PortSlotId via;
  };

  /// Def. 4 on a slice, cut by the ClipSlot that ProjectOutputIndex
  /// cuts a concrete index with. An empty fragment is always {0, 0}, so
  /// equal slices are equal fragments.
  Slice Project(Slice s, const workflow::ProcessorDepths& pd,
                const std::string& port) const {
    const size_t have = s.length == Slice::kToEnd ? length_ : s.length;
    const workflow::PortSlot cut = ClipSlot(pd, port, have);
    if (cut.length == 0) return Slice{0, 0};
    return Slice{static_cast<uint32_t>(s.offset + cut.offset),
                 static_cast<uint32_t>(cut.length)};
  }

  /// Marks (port, side, slice, via) visited; false if it already was.
  Result<bool> FirstVisit(const PortRef& port, bool output, Slice s,
                          const PortRef* via) {
    const workflow::PortSlotId slot = ports_.Find(port);
    if (slot == workflow::kNoPortSlot) {
      return Status::NotFound("no port " + port.ToString() +
                              " in workflow '" + flow_.name() + "'");
    }
    const workflow::PortSlotId via_slot =
        via == nullptr ? workflow::kNoPortSlot : ports_.Find(*via);
    std::vector<Visit>& seen = visited_[slot];
    for (const Visit& v : seen) {
      if (v.output == output && v.slice == s && v.via == via_slot) {
        return false;
      }
    }
    seen.push_back({output, s, via_slot});
    return true;
  }

  /// Records `c` unless an equal candidate exists: an output reached
  /// through two consumers is walked once per consumer.
  void AddCandidate(Candidate c) {
    if (std::find(candidates_.begin(), candidates_.end(), c) ==
        candidates_.end()) {
      candidates_.push_back(std::move(c));
    }
  }

  const Dataflow& flow_;
  const workflow::PortSpace& ports_;
  const workflow::DepthMap& depths_;
  const provenance::TraceStore& store_;
  const size_t length_;
  /// Visits per PortSlotId: a port is reached with few (slice, via)s.
  std::vector<std::vector<Visit>> visited_;
  std::vector<Candidate> candidates_;
  uint64_t steps_ = 0;
};

Result<IndexProjLineage::PlanKey> IndexProjLineage::MakePlanKey(
    const PortRef& target, const Index& q) const {
  // Validate before interning: a request that names no port of the
  // dataflow must not grow the store's symbol table.
  PROVLIN_RETURN_IF_ERROR(StartsAtOutput(*dataflow_, target).status());
  return PlanKey{store_->Intern(target.processor),
                 store_->Intern(target.port),
                 std::min(q.length(), length_cap_)};
}

Result<IndexProjLineage::PlanTemplate> IndexProjLineage::BuildTemplate(
    const PortRef& target, size_t length) const {
  PROVLIN_ASSIGN_OR_RETURN(bool at_output,
                           StartsAtOutput(*dataflow_, target));
  TemplateBuilder builder(*dataflow_, depths_, *store_, length);
  const Slice whole;
  PROVLIN_RETURN_IF_ERROR(at_output ? builder.VisitOutput(target, whole)
                                    : builder.VisitInput(target, whole));
  return builder.TakeTemplate();
}

LineagePlan IndexProjLineage::Instantiate(const PlanTemplate& plan,
                                          const Index& q,
                                          const InterestIds& interest) {
  LineagePlan out;
  out.graph_steps = plan.graph_steps;
  for (const Candidate& c : plan.candidates) {
    if (!IsInteresting(interest, c.query.processor)) continue;
    TraceQuery tq = c.query;
    tq.index = c.slice.length == Slice::kToEnd
                   ? q
                   : q.SubIndex(c.slice.offset, c.slice.length);
    if (std::find(out.queries.begin(), out.queries.end(), tq) ==
        out.queries.end()) {
      out.queries.push_back(std::move(tq));
    }
  }
  return out;
}

Result<std::shared_ptr<const LineagePlan>> IndexProjLineage::Plan(
    const PortRef& target, const Index& q, const InterestSet& interest,
    bool* cache_hit) const {
  PROVLIN_ASSIGN_OR_RETURN(const PlanKey key, MakePlanKey(target, q));

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

  // Exactly one thread per entry runs the s1 walk; contenders block here
  // until the template (or its failure) is recorded.
  bool built_here = false;
  std::call_once(entry->once, [&] {
    built_here = true;
    PROVLIN_TRACE_SPAN_VAR(span, "indexproj/plan_build");
    if (span.active()) {
      span.SetArgs("target=" + target.ToString() +
                   " length=" + std::to_string(key[2]));
    }
    cache_->builds.fetch_add(1, std::memory_order_relaxed);
    static auto* builds = common::metrics::GetCounter("lineage/plan_builds");
    builds->Increment();
    Result<PlanTemplate> plan = BuildTemplate(target, key[2]);
    if (plan.ok()) {
      entry->plan = std::move(plan).value();
    } else {
      entry->build_status = plan.status();
    }
  });
  if (cache_hit != nullptr) *cache_hit = !built_here;
  if (!built_here) cache_->hits.fetch_add(1, std::memory_order_relaxed);

  if (!entry->build_status.ok()) {
    // Evict failed builds so the error is not sticky.
    Status st = entry->build_status;
    common::WriterLock lock(cache_->mu);
    cache_->EraseEntryIfCurrent(key, entry);
    return st;
  }
  // 𝒫 is resolved only now, by lookup: the build interned every spec
  // name the walk reached, so a name the symbol table lacks matches no
  // candidate, and a request cannot grow the table.
  const InterestIds ids = InterestIds::Resolve(
      interest,
      [this](const std::string& name) { return store_->LookupSymbol(name); });
  return std::make_shared<const LineagePlan>(Instantiate(entry->plan, q, ids));
}

void IndexProjLineage::PlanCache::EraseEntryIfCurrent(
    const PlanKey& key,
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

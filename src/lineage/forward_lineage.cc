#include "lineage/forward_lineage.h"

#include <set>
#include <tuple>

#include "common/timer.h"
#include "common/tracing.h"

namespace provlin::lineage {

using common::kNoSymbol;
using common::SymbolId;
using provenance::XferRecord;
using provenance::XformRecord;
using workflow::Dataflow;
using workflow::kWorkflowProcessor;
using workflow::PortRef;
using workflow::Processor;

// ---------------------------------------------------------------------------
// Naive forward traversal
// ---------------------------------------------------------------------------

namespace {

/// ID-space forward traversal, mirroring the backward naive engine:
/// ports and runs are SymbolIds, and the visited set keys on the index
/// path itself, so a query at a fresh index does not grow the store's
/// saved index dictionary. Strings only reappear in the reported
/// bindings.
class ForwardTraversal {
 public:
  ForwardTraversal(const provenance::TraceStore& store, std::string run,
                   SymbolId run_sym, const InterestSet& interest)
      : store_(store),
        run_(std::move(run)),
        run_sym_(run_sym),
        all_interesting_(interest.empty()),
        workflow_sym_(store.Intern(kWorkflowProcessor)) {
    for (const std::string& name : interest) {
      auto sym = store.LookupSymbol(name);
      if (sym.has_value()) interest_syms_.insert(*sym);
    }
  }

  bool Interesting(SymbolId processor) const {
    return all_interesting_ || interest_syms_.count(processor) > 0;
  }

  /// Producer side: a value sits on an output port (or workflow input);
  /// hop every outgoing arc.
  Status VisitProducer(SymbolId processor, SymbolId port, const Index& p) {
    ++steps_;
    auto key = std::make_tuple(processor, port, p, /*producer=*/true);
    if (!visited_.insert(key).second) return Status::OK();
    PROVLIN_ASSIGN_OR_RETURN(
        std::vector<XferRecord> xfers,
        store_.FindXfersFrom(run_sym_, processor, port, p));
    std::set<std::pair<SymbolId, SymbolId>> dsts;
    for (const XferRecord& row : xfers) {
      dsts.insert({row.dst_proc, row.dst_port});
    }
    for (const auto& [dst_proc, dst_port] : dsts) {
      if (dst_proc == workflow_sym_) {
        if (Interesting(workflow_sym_)) {
          PROVLIN_RETURN_IF_ERROR(ReportWorkflowOutput(dst_port, p));
        }
        continue;
      }
      PROVLIN_RETURN_IF_ERROR(VisitConsumer(dst_proc, dst_port, p));
    }
    return Status::OK();
  }

  /// Consumer side: the value arrived at an input port; the xform rows
  /// give the elementary events that consumed it and their outputs.
  Status VisitConsumer(SymbolId processor, SymbolId port, const Index& p) {
    ++steps_;
    auto key = std::make_tuple(processor, port, p, /*producer=*/false);
    if (!visited_.insert(key).second) return Status::OK();
    PROVLIN_ASSIGN_OR_RETURN(
        std::vector<XformRecord> rows,
        store_.FindConsuming(run_sym_, processor, port, p));
    bool interesting = Interesting(processor);
    std::set<std::pair<SymbolId, Index>> next;
    for (const XformRecord& row : rows) {
      if (!row.has_out) continue;
      if (interesting) {
        PROVLIN_ASSIGN_OR_RETURN(std::string repr,
                                 store_.GetValueRepr(row.run, row.out_value));
        bindings_.push_back(LineageBinding{
            run_,
            PortRef{store_.NameOf(row.processor), store_.NameOf(row.out_port)},
            row.out_index, std::move(repr)});
      }
      next.insert({row.out_port, row.out_index});
    }
    for (const auto& [out_port, idx] : next) {
      PROVLIN_RETURN_IF_ERROR(VisitProducer(processor, out_port, idx));
    }
    return Status::OK();
  }

  std::vector<LineageBinding>& bindings() { return bindings_; }
  uint64_t steps() const { return steps_; }

 private:
  Status ReportWorkflowOutput(SymbolId out_port, const Index& p) {
    // The (single, coarse) xfer row into the workflow output carries the
    // whole value; report the element the arrival index selects.
    PROVLIN_ASSIGN_OR_RETURN(
        std::vector<XferRecord> rows,
        store_.FindXfersInto(run_sym_, workflow_sym_, out_port, p));
    for (const XferRecord& row : rows) {
      PROVLIN_ASSIGN_OR_RETURN(Value whole,
                               store_.GetValue(run_, row.value_id));
      if (!row.dst_index.IsPrefixOf(p)) continue;
      Index residual =
          p.SubIndex(row.dst_index.length(), p.length() - row.dst_index.length());
      auto element = whole.At(residual);
      if (!element.ok()) continue;  // index beyond the produced value
      bindings_.push_back(LineageBinding{
          run_, PortRef{kWorkflowProcessor, store_.NameOf(out_port)}, p,
          element.value().ToString()});
    }
    return Status::OK();
  }

  const provenance::TraceStore& store_;
  std::string run_;
  SymbolId run_sym_;
  bool all_interesting_;
  SymbolId workflow_sym_;
  std::set<SymbolId> interest_syms_;
  std::set<std::tuple<SymbolId, SymbolId, Index, bool>> visited_;
  std::vector<LineageBinding> bindings_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<LineageAnswer> NaiveForwardLineage::Query(
    const std::string& run, const PortRef& target, const Index& p,
    const InterestSet& interest) const {
  PROVLIN_TRACE_SPAN("forward_ni/query");
  LineageAnswer answer;
  storage::ThreadStats before = storage::ThisThreadStats();
  WallTimer timer;

  // Resolve the query to id space once; unrecorded names have no impact.
  auto run_sym = store_->LookupSymbol(run);
  auto proc_sym = store_->LookupSymbol(target.processor);
  auto port_sym = store_->LookupSymbol(target.port);
  if (!run_sym || !proc_sym || !port_sym) {
    answer.timing.t2_ms = timer.ElapsedMillis();
    return answer;
  }

  ForwardTraversal traversal(*store_, run, *run_sym, interest);
  // Side detection: ports with outgoing xfer rows or producing xform
  // rows are producer-side; anything else is consumed.
  PROVLIN_ASSIGN_OR_RETURN(
      std::vector<XferRecord> out_xfers,
      store_->FindXfersFrom(*run_sym, *proc_sym, *port_sym, p));
  bool producer = !out_xfers.empty();
  if (!producer) {
    PROVLIN_ASSIGN_OR_RETURN(
        std::vector<XformRecord> produced,
        store_->FindProducing(*run_sym, *proc_sym, *port_sym, p));
    producer = !produced.empty();
  }
  if (producer) {
    PROVLIN_RETURN_IF_ERROR(traversal.VisitProducer(*proc_sym, *port_sym, p));
  } else {
    PROVLIN_RETURN_IF_ERROR(traversal.VisitConsumer(*proc_sym, *port_sym, p));
  }

  answer.bindings = std::move(traversal.bindings());
  NormalizeBindings(&answer.bindings);
  answer.timing.t2_ms = timer.ElapsedMillis();
  answer.timing.graph_steps = traversal.steps();
  answer.timing.trace_probes =
      storage::ThisThreadStats().probes() - before.probes();
  answer.timing.trace_descents =
      storage::ThisThreadStats().descents - before.descents;
  PublishTiming("forward_naive", answer.timing);
  return answer;
}

// ---------------------------------------------------------------------------
// Forward IndexProj
// ---------------------------------------------------------------------------

Result<ForwardIndexProjLineage> ForwardIndexProjLineage::Create(
    std::shared_ptr<const Dataflow> dataflow,
    const provenance::TraceStore* store) {
  PROVLIN_ASSIGN_OR_RETURN(workflow::DepthMap depths,
                           workflow::PropagateDepths(*dataflow));
  return ForwardIndexProjLineage(std::move(dataflow), std::move(depths),
                                 store);
}

namespace {

/// Truncates/pads `pattern` to exactly `len` components (wildcard pad).
IndexPattern FitPattern(const IndexPattern& pattern, size_t len) {
  IndexPattern out;
  for (size_t i = 0; i < len; ++i) {
    if (i < pattern.length() && pattern.at(i).has_value()) {
      out.AppendKnown(*pattern.at(i));
    } else {
      out.AppendWildcard();
    }
  }
  return out;
}

/// Forward planner. Port names are interned as they are reached; every
/// one is a port of the dataflow, because BuildPlan validates the target
/// before the walk starts. Patterns (which carry wildcards and so have
/// no IndexId) keep their compact Encode() form inside the plan-build
/// dedup keys — those sets live only for the duration of one BuildPlan.
class ForwardPlanner {
 public:
  ForwardPlanner(const Dataflow& flow, const workflow::DepthMap& depths,
                 const InterestSet& interest,
                 const provenance::TraceStore& store)
      : flow_(flow), depths_(depths), interest_(interest), store_(store) {}

  Status VisitProducer(const PortRef& port, const IndexPattern& pattern) {
    ++steps_;
    auto key = std::make_tuple(store_.Intern(port.processor),
                               store_.Intern(port.port), pattern.Encode(),
                               /*producer=*/true);
    if (!visited_.insert(key).second) return Status::OK();
    for (const workflow::Arc* arc : flow_.ArcsFrom(port)) {
      PROVLIN_RETURN_IF_ERROR(VisitConsumer(arc->dst, pattern));
    }
    return Status::OK();
  }

  Status VisitConsumer(const PortRef& port, const IndexPattern& pattern) {
    ++steps_;
    auto key = std::make_tuple(store_.Intern(port.processor),
                               store_.Intern(port.port), pattern.Encode(),
                               /*producer=*/false);
    if (!visited_.insert(key).second) return Status::OK();
    if (port.processor == kWorkflowProcessor) {
      if (IsInteresting(interest_, kWorkflowProcessor)) {
        ForwardTraceQuery q;
        q.processor = store_.Intern(kWorkflowProcessor);
        q.port = store_.Intern(port.port);
        q.pattern = pattern;
        q.workflow_output = true;
        AddQuery(std::move(q));
      }
      return Status::OK();
    }
    const Processor* proc = flow_.FindProcessor(port.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + port.processor + "'");
    }
    auto ordinal = proc->InputOrdinal(port.port);
    if (!ordinal.has_value()) {
      return Status::NotFound("no input port " + port.ToString());
    }
    const workflow::ProcessorDepths& pd = depths_.ForProcessor(proc->name);
    // The strategy layout gives this port's slot in the output index;
    // the fragment lands there and everything else is unknown (Prop. 1
    // inverted, generalized to strategy expressions).
    workflow::PortSlot slot;
    auto sit = pd.slots.find(port.port);
    if (sit != pd.slots.end()) slot = sit->second;
    IndexPattern fragment = FitPattern(pattern, slot.length);
    IndexPattern out_pattern;
    out_pattern.AppendWildcards(slot.offset);
    for (size_t i = 0; i < fragment.length(); ++i) {
      if (fragment.at(i).has_value()) {
        out_pattern.AppendKnown(*fragment.at(i));
      } else {
        out_pattern.AppendWildcard();
      }
    }
    out_pattern.AppendWildcards(static_cast<size_t>(pd.iteration_levels) -
                                slot.offset - slot.length);

    if (IsInteresting(interest_, proc->name)) {
      for (const workflow::Port& out : proc->outputs) {
        ForwardTraceQuery q;
        q.processor = store_.Intern(proc->name);
        q.port = store_.Intern(out.name);
        q.pattern = out_pattern;
        AddQuery(std::move(q));
      }
    }
    for (const workflow::Port& out : proc->outputs) {
      PROVLIN_RETURN_IF_ERROR(
          VisitProducer(PortRef{proc->name, out.name}, out_pattern));
    }
    return Status::OK();
  }

  ForwardPlan TakePlan() {
    ForwardPlan plan;
    plan.queries = std::move(queries_);
    plan.graph_steps = steps_;
    return plan;
  }

 private:
  void AddQuery(ForwardTraceQuery q) {
    auto key = std::make_tuple(q.processor, q.port, q.pattern.Encode());
    if (query_keys_.insert(key).second) queries_.push_back(std::move(q));
  }

  using VisitKey = std::tuple<SymbolId, SymbolId, std::string, bool>;
  using QueryKey = std::tuple<SymbolId, SymbolId, std::string>;

  const Dataflow& flow_;
  const workflow::DepthMap& depths_;
  const InterestSet& interest_;
  const provenance::TraceStore& store_;
  std::set<VisitKey> visited_;
  std::set<QueryKey> query_keys_;
  std::vector<ForwardTraceQuery> queries_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<ForwardPlan> ForwardIndexProjLineage::BuildPlan(
    const PortRef& target, const Index& p,
    const InterestSet& interest) const {
  ForwardPlanner planner(*dataflow_, depths_, interest, *store_);
  IndexPattern pattern(p);
  if (target.processor == kWorkflowProcessor) {
    if (dataflow_->FindWorkflowInput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitProducer(target, pattern));
    } else if (dataflow_->FindWorkflowOutput(target.port) != nullptr) {
      // Forward from a workflow output: nothing is downstream.
      return planner.TakePlan();
    } else {
      return Status::NotFound("no workflow port '" + target.port + "'");
    }
  } else {
    const Processor* proc = dataflow_->FindProcessor(target.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + target.processor + "'");
    }
    if (proc->FindOutput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitProducer(target, pattern));
    } else if (proc->FindInput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitConsumer(target, pattern));
    } else {
      return Status::NotFound("no port " + target.ToString());
    }
  }
  return planner.TakePlan();
}

Result<const ForwardPlan*> ForwardIndexProjLineage::Plan(
    const PortRef& target, const Index& p, const InterestSet& interest) {
  PlanKey key{target, p, interest};
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) return &it->second;
  PROVLIN_ASSIGN_OR_RETURN(ForwardPlan plan, BuildPlan(target, p, interest));
  auto [pos, _] = plan_cache_.emplace(std::move(key), std::move(plan));
  return &pos->second;
}

namespace {

/// Workflow-output assembly: the coarse xfer row into the output carries
/// the whole value; enumerate the concrete indices the pattern selects.
Status AppendForwardOutputBindings(const provenance::TraceStore& store,
                                   const std::string& run,
                                   const ForwardTraceQuery& q,
                                   const std::vector<XferRecord>& rows,
                                   std::vector<LineageBinding>* bindings) {
  for (const XferRecord& row : rows) {
    PROVLIN_ASSIGN_OR_RETURN(Value whole, store.GetValue(run, row.value_id));
    for (const Index& idx : whole.IndicesAtLevel(q.pattern.length())) {
      if (!q.pattern.Overlaps(idx)) continue;
      auto element = whole.At(idx);
      if (!element.ok()) continue;
      bindings->push_back(LineageBinding{
          run, PortRef{kWorkflowProcessor, store.NameOf(q.port)}, idx,
          element.value().ToString()});
    }
  }
  return Status::OK();
}

/// Interesting-processor assembly: out-bindings whose index the pattern
/// selects, deduped per (index path, value).
Status AppendForwardProducedBindings(const provenance::TraceStore& store,
                                     const std::string& run,
                                     const ForwardTraceQuery& q,
                                     const std::vector<XformRecord>& rows,
                                     std::vector<LineageBinding>* bindings) {
  PortRef port{store.NameOf(q.processor), store.NameOf(q.port)};
  std::set<std::pair<Index, int64_t>> seen;
  for (const XformRecord& row : rows) {
    if (!row.has_out || row.out_port != q.port) continue;
    if (!q.pattern.Overlaps(row.out_index)) continue;
    if (!seen.emplace(row.out_index, row.out_value).second) continue;
    PROVLIN_ASSIGN_OR_RETURN(std::string repr,
                             store.GetValueRepr(row.run, row.out_value));
    bindings->push_back(
        LineageBinding{run, port, row.out_index, std::move(repr)});
  }
  return Status::OK();
}

}  // namespace

Status ForwardIndexProjLineage::ExecutePlan(
    const ForwardPlan& plan, const std::string& run,
    std::vector<LineageBinding>* bindings) const {
  auto run_sym = store_->LookupSymbol(run);
  if (!run_sym.has_value()) return Status::OK();

  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<provenance::PortProbe> xfer_probes;
  std::vector<provenance::PortProbe> prod_probes;
  std::vector<size_t> slot(plan.queries.size(), kNone);
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    const ForwardTraceQuery& q = plan.queries[i];
    auto& probes = q.workflow_output ? xfer_probes : prod_probes;
    slot[i] = probes.size();
    probes.push_back({*run_sym, q.processor, q.port, q.pattern.KnownPrefix()});
  }

  std::vector<std::vector<XferRecord>> xfer_rows;
  if (!xfer_probes.empty()) {
    PROVLIN_ASSIGN_OR_RETURN(xfer_rows, store_->FindXfersIntoBatch(xfer_probes));
  }
  std::vector<std::vector<XformRecord>> prod_rows;
  if (!prod_probes.empty()) {
    PROVLIN_ASSIGN_OR_RETURN(prod_rows, store_->FindProducingBatch(prod_probes));
  }

  for (size_t i = 0; i < plan.queries.size(); ++i) {
    const ForwardTraceQuery& q = plan.queries[i];
    if (q.workflow_output) {
      PROVLIN_RETURN_IF_ERROR(AppendForwardOutputBindings(
          *store_, run, q, xfer_rows[slot[i]], bindings));
    } else {
      PROVLIN_RETURN_IF_ERROR(AppendForwardProducedBindings(
          *store_, run, q, prod_rows[slot[i]], bindings));
    }
  }
  return Status::OK();
}

Result<LineageAnswer> ForwardIndexProjLineage::Query(
    const std::string& run, const PortRef& target, const Index& p,
    const InterestSet& interest) {
  return QueryMultiRun({run}, target, p, interest);
}

Result<LineageAnswer> ForwardIndexProjLineage::QueryMultiRun(
    const std::vector<std::string>& runs, const PortRef& target,
    const Index& p, const InterestSet& interest) {
  PROVLIN_TRACE_SPAN("forward_indexproj/query");
  LineageAnswer answer;
  answer.timing.plan_cache_hit =
      plan_cache_.count(PlanKey{target, p, interest}) > 0;
  WallTimer t1;
  PROVLIN_ASSIGN_OR_RETURN(const ForwardPlan* plan,
                           Plan(target, p, interest));
  answer.timing.t1_ms = t1.ElapsedMillis();
  answer.timing.graph_steps = plan->graph_steps;

  storage::ThreadStats before = storage::ThisThreadStats();
  WallTimer t2;
  for (const std::string& run : runs) {
    PROVLIN_RETURN_IF_ERROR(ExecutePlan(*plan, run, &answer.bindings));
  }
  answer.timing.t2_ms = t2.ElapsedMillis();
  answer.timing.trace_probes =
      storage::ThisThreadStats().probes() - before.probes();
  answer.timing.trace_descents =
      storage::ThisThreadStats().descents - before.descents;

  NormalizeBindings(&answer.bindings);
  PublishTiming("forward_indexproj", answer.timing);
  return answer;
}

}  // namespace provlin::lineage

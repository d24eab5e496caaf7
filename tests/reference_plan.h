// Reference oracle for the IndexProj s1 plan: Alg. 2 as the plain
// depth-first walk of the spec graph for one (target, q, 𝒫), over
// concrete indices, pruning revisits and duplicate queries with sets
// keyed on the interned index. The production IndexProjLineage walks
// the graph once per (target, capped |q|) in slice space and
// instantiates that template per request; prop1_test asserts that both
// list the same trace queries in the same order. Test-only: nothing in
// the library depends on it.
#ifndef PROVLIN_TESTS_REFERENCE_PLAN_H_
#define PROVLIN_TESTS_REFERENCE_PLAN_H_

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/index_projection.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"
#include "workflow/dataflow.h"
#include "workflow/depth_propagation.h"

namespace provlin::oracle {

class ReferencePlanner {
 public:
  ReferencePlanner(const workflow::Dataflow& flow,
                   const workflow::DepthMap& depths,
                   const lineage::InterestSet& interest,
                   const provenance::TraceStore& store)
      : flow_(flow),
        depths_(depths),
        store_(store),
        interest_(lineage::InterestIds::Resolve(
            interest, [&store](const std::string& name) {
              return std::optional<SymbolId>(store.Intern(name));
            })) {}

  /// Y ∈ O_P case: apply the projection rule, emit trace queries at
  /// interesting processors, continue through the inputs. `via` names
  /// the consuming input port the traversal arrived through (null for a
  /// direct query on a workflow input).
  Status VisitOutput(const workflow::PortRef& port, const Index& q,
                     const workflow::PortRef* via = nullptr) {
    ++steps_;
    SymbolId via_proc = common::kNoSymbol;
    SymbolId via_port = common::kNoSymbol;
    if (via != nullptr) {
      via_proc = store_.Intern(via->processor);
      via_port = store_.Intern(via->port);
    }
    SymbolId proc_sym = store_.Intern(port.processor);
    auto key = std::make_tuple(proc_sym, store_.Intern(port.port),
                               store_.InternIndex(q), via_proc, via_port,
                               /*output=*/true);
    if (!visited_.insert(key).second) return Status::OK();
    if (port.processor == workflow::kWorkflowProcessor) {
      // Reached a top-level workflow input: a lineage source.
      if (lineage::IsInteresting(interest_, proc_sym)) {
        lineage::TraceQuery tq;
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
    const workflow::Processor* proc = flow_.FindProcessor(port.processor);
    if (proc == nullptr) {
      return Status::NotFound("no processor '" + port.processor +
                              "' in workflow '" + flow_.name() + "'");
    }
    const workflow::ProcessorDepths& pd = depths_.ForProcessor(proc->name);
    std::vector<Index> projected = lineage::ProjectOutputIndex(*proc, pd, q);
    bool interesting = lineage::IsInteresting(interest_, proc_sym);
    for (size_t i = 0; i < proc->inputs.size(); ++i) {
      if (interesting) {
        lineage::TraceQuery tq;
        tq.processor = proc_sym;
        tq.port = store_.Intern(proc->inputs[i].name);
        tq.index = projected[i];
        AddQuery(std::move(tq));
      }
      PROVLIN_RETURN_IF_ERROR(VisitInput(
          workflow::PortRef{proc->name, proc->inputs[i].name}, projected[i]));
    }
    return Status::OK();
  }

  /// Y ∉ O_P case: follow the arcs backwards with the index unchanged.
  Status VisitInput(const workflow::PortRef& port, const Index& p) {
    ++steps_;
    auto key = std::make_tuple(store_.Intern(port.processor),
                               store_.Intern(port.port), store_.InternIndex(p),
                               common::kNoSymbol, common::kNoSymbol,
                               /*output=*/false);
    if (!visited_.insert(key).second) return Status::OK();
    for (const workflow::Arc* arc : flow_.ArcsInto(port)) {
      PROVLIN_RETURN_IF_ERROR(VisitOutput(arc->src, p, &port));
    }
    return Status::OK();
  }

  lineage::LineagePlan TakePlan() {
    lineage::LineagePlan plan;
    plan.queries = std::move(queries_);
    plan.graph_steps = steps_;
    return plan;
  }

 private:
  using SymbolId = common::SymbolId;
  using IndexId = common::IndexId;

  void AddQuery(lineage::TraceQuery q) {
    auto key = std::make_tuple(q.processor, q.port, store_.InternIndex(q.index),
                               q.via_processor, q.via_port);
    if (query_keys_.insert(key).second) queries_.push_back(std::move(q));
  }

  using VisitKey =
      std::tuple<SymbolId, SymbolId, IndexId, SymbolId, SymbolId, bool>;
  using QueryKey = std::tuple<SymbolId, SymbolId, IndexId, SymbolId, SymbolId>;

  const workflow::Dataflow& flow_;
  const workflow::DepthMap& depths_;
  const provenance::TraceStore& store_;
  lineage::InterestIds interest_;
  std::set<VisitKey> visited_;
  std::set<QueryKey> query_keys_;
  std::vector<lineage::TraceQuery> queries_;
  uint64_t steps_ = 0;
};

/// The plan of lin(target[q], 𝒫) by the concrete walk.
inline Result<lineage::LineagePlan> ReferencePlan(
    const workflow::Dataflow& flow, const workflow::DepthMap& depths,
    const provenance::TraceStore& store, const workflow::PortRef& target,
    const Index& q, const lineage::InterestSet& interest) {
  ReferencePlanner planner(flow, depths, interest, store);
  if (target.processor == workflow::kWorkflowProcessor) {
    if (flow.FindWorkflowOutput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitInput(target, q));
    } else if (flow.FindWorkflowInput(target.port) != nullptr) {
      PROVLIN_RETURN_IF_ERROR(planner.VisitOutput(target, q));
    } else {
      return Status::NotFound("no workflow port '" + target.port + "'");
    }
  } else {
    const workflow::Processor* proc = flow.FindProcessor(target.processor);
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

}  // namespace provlin::oracle

#endif  // PROVLIN_TESTS_REFERENCE_PLAN_H_

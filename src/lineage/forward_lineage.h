#ifndef PROVLIN_LINEAGE_FORWARD_LINEAGE_H_
#define PROVLIN_LINEAGE_FORWARD_LINEAGE_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "lineage/engine.h"
#include "lineage/index_pattern.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"
#include "workflow/depth_propagation.h"

namespace provlin::lineage {

/// Forward ("impact") lineage — the dual of Def. 1: given a binding
/// ⟨P:Y[p]⟩, find every *output* binding of the interesting processors
/// that depends on it ("a KEGG release changed gene X: which results
/// are affected?"). This extends the paper, which treats backward
/// queries only; the same machinery applies because the index
/// projection rule is invertible: pushing an index *with* the flow
/// composes output indices per Prop. 1, with the fragments contributed
/// by a processor's other ports becoming wildcards (IndexPattern).
///
/// InterestSet semantics mirror the backward engines: named processors
/// report their output bindings, "workflow" selects the workflow output
/// ports, the empty set is unfocused.

/// Naïve forward baseline: walks the trace in flow direction (xfer rows
/// by source, xform rows by input port), one probe bundle per step.
class NaiveForwardLineage {
 public:
  explicit NaiveForwardLineage(const provenance::TraceStore* store)
      : store_(store) {}

  Result<LineageAnswer> Query(const std::string& run,
                              const workflow::PortRef& target, const Index& p,
                              const InterestSet& interest) const;

 private:
  const provenance::TraceStore* store_;
};

/// One generated forward trace query: retrieve the out-bindings of
/// `processor`:`port` whose index overlaps `pattern`. Names are stored
/// interned, like the backward TraceQuery.
struct ForwardTraceQuery {
  common::SymbolId processor = common::kNoSymbol;
  common::SymbolId port = common::kNoSymbol;
  IndexPattern pattern;
  bool workflow_output = false;

  std::string ToString(const provenance::TraceStore& store) const {
    return "Qf(" + store.NameOf(processor) + ", " + store.NameOf(port) + ", " +
           pattern.ToString() + ")";
  }
};

struct ForwardPlan {
  std::vector<ForwardTraceQuery> queries;
  uint64_t graph_steps = 0;
};

/// Spec-graph forward engine: traverses the workflow graph downstream
/// from the target, composing index patterns, and touches the trace
/// only to retrieve the matching out-bindings of interesting processors
/// (plus one probe per reached workflow output). Plans are cached like
/// the backward engine's.
class ForwardIndexProjLineage {
 public:
  /// A plan's trace queries execute as one xfers-into batch plus one
  /// producing batch per run.
  static Result<ForwardIndexProjLineage> Create(
      std::shared_ptr<const workflow::Dataflow> dataflow,
      const provenance::TraceStore* store);

  Result<const ForwardPlan*> Plan(const workflow::PortRef& target,
                                  const Index& p, const InterestSet& interest);

  Result<LineageAnswer> Query(const std::string& run,
                              const workflow::PortRef& target, const Index& p,
                              const InterestSet& interest);

  Result<LineageAnswer> QueryMultiRun(const std::vector<std::string>& runs,
                                      const workflow::PortRef& target,
                                      const Index& p,
                                      const InterestSet& interest);

  void ClearPlanCache() { plan_cache_.clear(); }

 private:
  ForwardIndexProjLineage(std::shared_ptr<const workflow::Dataflow> dataflow,
                          workflow::DepthMap depths,
                          const provenance::TraceStore* store)
      : dataflow_(std::move(dataflow)),
        depths_(std::move(depths)),
        store_(store) {}

  Result<ForwardPlan> BuildPlan(const workflow::PortRef& target,
                                const Index& p,
                                const InterestSet& interest) const;
  Status ExecutePlan(const ForwardPlan& plan, const std::string& run,
                     std::vector<LineageBinding>* bindings) const;

  /// A plan is keyed on the request as named: target, index path and
  /// 𝒫's names. Nothing is interned for the key, and a 𝒫 of names the
  /// store never recorded (focused on nothing) keeps a key apart from
  /// the empty, unfocused 𝒫.
  using PlanKey = std::tuple<workflow::PortRef, Index, InterestSet>;

  std::shared_ptr<const workflow::Dataflow> dataflow_;
  workflow::DepthMap depths_;
  const provenance::TraceStore* store_;
  std::map<PlanKey, ForwardPlan> plan_cache_;
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_FORWARD_LINEAGE_H_

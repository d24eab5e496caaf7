// Reference oracle for the lineage equivalence suites: NI (Def. 1) as
// the plain depth-first mutual recursion over the trace, one run at a
// time, with one independent single probe per visited node. The
// production NaiveLineage runs the same traversal breadth first over
// every run at once with sorted probe batches; the suites assert that
// both expand the same nodes (byte-identical bindings, equal logical
// probes) and that batching never adds descents. Test-only: nothing in
// the library depends on it.
#ifndef PROVLIN_TESTS_REFERENCE_NI_H_
#define PROVLIN_TESTS_REFERENCE_NI_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lineage/binding_retrieval.h"
#include "lineage/engine.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"
#include "storage/table.h"

namespace provlin::oracle {

class ReferenceNaiveLineage : public lineage::LineageEngine {
 public:
  explicit ReferenceNaiveLineage(const provenance::TraceStore* store)
      : store_(store) {}

  std::string_view name() const override { return "reference_ni"; }

  Result<lineage::LineageAnswer> Query(
      const lineage::LineageRequest& request) const override {
    lineage::LineageAnswer answer;
    const storage::ThreadStats before = storage::ThisThreadStats();
    for (const std::string& run : request.runs) {
      PROVLIN_RETURN_IF_ERROR(QueryRun(run, request, &answer));
    }
    answer.timing.trace_probes =
        storage::ThisThreadStats().probes() - before.probes();
    answer.timing.trace_descents =
        storage::ThisThreadStats().descents - before.descents;
    lineage::NormalizeBindings(&answer.bindings);
    return answer;
  }

 private:
  using SymbolId = common::SymbolId;
  enum class Side { kOutput, kInput };

  /// One run's recursion state: the visited set and the raw bindings.
  struct Traversal {
    const provenance::TraceStore& store;
    const std::string& run_name;
    SymbolId workflow_sym;
    lineage::InterestIds interest;
    std::set<std::tuple<SymbolId, SymbolId, common::IndexId, bool>> visited;
    std::vector<lineage::LineageBinding> bindings;
    uint64_t steps = 0;

    Status Visit(SymbolId run, SymbolId processor, SymbolId port,
                 const Index& q, Side side) {
      ++steps;
      auto key = std::make_tuple(processor, port, store.InternIndex(q),
                                 side == Side::kOutput);
      if (!visited.insert(key).second) return Status::OK();

      if (side == Side::kOutput) {
        PROVLIN_ASSIGN_OR_RETURN(std::vector<provenance::XformRecord> rows,
                                 store.FindProducing(run, processor, port, q));
        if (processor == workflow_sym) {
          // Workflow-input source rows: the recursion terminates here.
          if (IsInteresting(interest, workflow_sym)) {
            PROVLIN_RETURN_IF_ERROR(lineage::AppendSourceBindings(
                store, run_name, rows, q, &bindings));
          }
          return Status::OK();
        }
        const bool interesting = IsInteresting(interest, processor);
        std::set<std::pair<SymbolId, Index>> next;  // (in_port, index)
        for (const provenance::XformRecord& row : rows) {
          if (!row.has_in) continue;
          if (interesting) {
            PROVLIN_RETURN_IF_ERROR(
                lineage::AppendInputBinding(store, run_name, row, &bindings));
          }
          next.insert({row.in_port, row.in_index});
        }
        for (const auto& [in_port, idx] : next) {
          PROVLIN_RETURN_IF_ERROR(
              Visit(run, processor, in_port, idx, Side::kInput));
        }
        return Status::OK();
      }

      // Input side: hop the arc backwards with the index unchanged; the
      // xfer rows identify the source port.
      PROVLIN_ASSIGN_OR_RETURN(std::vector<provenance::XferRecord> rows,
                               store.FindXfersInto(run, processor, port, q));
      std::set<std::pair<SymbolId, SymbolId>> sources;
      for (const provenance::XferRecord& row : rows) {
        sources.insert({row.src_proc, row.src_port});
      }
      for (const auto& [src_proc, src_port] : sources) {
        PROVLIN_RETURN_IF_ERROR(
            Visit(run, src_proc, src_port, q, Side::kOutput));
      }
      return Status::OK();
    }
  };

  Status QueryRun(const std::string& run,
                  const lineage::LineageRequest& request,
                  lineage::LineageAnswer* answer) const {
    auto run_sym = store_->LookupSymbol(run);
    auto proc_sym = store_->LookupSymbol(request.target.processor);
    auto port_sym = store_->LookupSymbol(request.target.port);
    if (!run_sym || !proc_sym || !port_sym) return Status::OK();
    Traversal traversal{
        *store_, run, store_->Intern(workflow::kWorkflowProcessor),
        lineage::InterestIds::Resolve(
            request.interest,
            [this](const std::string& name) {
              return store_->LookupSymbol(name);
            }),
        {}, {}, 0};
    // Starting side: a port with producing xform rows is an output
    // (workflow inputs included, via their source rows); anything else
    // is an arc destination.
    PROVLIN_ASSIGN_OR_RETURN(
        std::vector<provenance::XformRecord> detect,
        store_->FindProducing(*run_sym, *proc_sym, *port_sym, request.index));
    const Side side = detect.empty() ? Side::kInput : Side::kOutput;
    PROVLIN_RETURN_IF_ERROR(traversal.Visit(*run_sym, *proc_sym, *port_sym,
                                            request.index, side));
    answer->bindings.insert(answer->bindings.end(), traversal.bindings.begin(),
                            traversal.bindings.end());
    answer->timing.graph_steps += traversal.steps;
    return Status::OK();
  }

  const provenance::TraceStore* store_;
};

}  // namespace provlin::oracle

#endif  // PROVLIN_TESTS_REFERENCE_NI_H_

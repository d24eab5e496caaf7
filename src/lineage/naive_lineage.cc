#include "lineage/naive_lineage.h"

#include <map>
#include <set>
#include <tuple>

#include "common/timer.h"
#include "common/tracing.h"
#include "lineage/binding_retrieval.h"

namespace provlin::lineage {

using provenance::SymbolId;
using provenance::XferRecord;
using provenance::XformRecord;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

namespace {

/// Which side of a processor a visited binding sits on: output-port
/// bindings invert xform events (Def. 1 case 1), input-port bindings hop
/// an arc (case 2).
enum class Side { kOutput, kInput };

/// ID-space traversal state: processors, ports, and runs are SymbolIds,
/// so the visited set and the frontier compare integers and index paths.
/// The visited set keys on the index path itself: it needs equality
/// within one query only, and must not grow the store's saved index
/// dictionary. Strings only reappear in the reported bindings.
///
/// One Traversal may span several runs: the visited set and every
/// frontier entry are run-qualified, and each level's probes for *all*
/// runs go to the store as one run-qualified batch — which the sharded
/// store splits by owning shard and fans out.
class Traversal {
 public:
  Traversal(const provenance::TraceStore& store, const InterestSet& interest)
      : store_(store),
        workflow_sym_(store.Intern(kWorkflowProcessor)),
        // Names never recorded can't match any trace row; Resolve drops
        // them so the hot check is a pure integer set lookup.
        interest_(InterestIds::Resolve(
            interest, [&store](const std::string& name) {
              return store.LookupSymbol(name);
            })) {}

  /// Registers a run and seeds the frontier with its target.
  void Seed(std::string run, SymbolId run_sym, SymbolId processor,
            SymbolId port, const Index& q, Side side) {
    run_names_.emplace(run_sym, std::move(run));
    frontier_.push_back({run_sym, processor, port, q, side});
  }

  /// Def. 1 over all seeded runs, breadth first: each level collects
  /// its pending visits, filters them through the visited set (counting
  /// every attempt as a graph step), and issues one producing batch and
  /// one xfer batch for the whole level. Runs traverse independently
  /// (the visited key carries the run), so the expanded node set — and
  /// therefore the logical probe set, step count, and answer — is that
  /// of a depth-first recursion per run; only probe physics (shared
  /// descents, cross-shard fan-out) and visit order differ, and the
  /// final NormalizeBindings erases the order.
  Status Run() {
    std::vector<Pending> frontier = std::move(frontier_);
    frontier_.clear();
    while (!frontier.empty()) {
      PROVLIN_TRACE_SPAN_VAR(level_span, "ni/frontier_level");
      if (level_span.active()) {
        level_span.SetArgs("width=" + std::to_string(frontier.size()));
      }
      std::vector<Pending> out_items;
      std::vector<Pending> in_items;
      for (Pending& item : frontier) {
        ++steps_;
        auto key = std::make_tuple(item.run, item.processor, item.port,
                                   item.index, item.side == Side::kOutput);
        if (!visited_.insert(key).second) continue;
        (item.side == Side::kOutput ? out_items : in_items)
            .push_back(std::move(item));
      }
      std::vector<Pending> next;

      if (!out_items.empty()) {
        std::vector<provenance::PortProbe> probes;
        probes.reserve(out_items.size());
        for (const Pending& item : out_items) {
          probes.push_back({item.run, item.processor, item.port, item.index});
        }
        PROVLIN_ASSIGN_OR_RETURN(
            std::vector<std::vector<XformRecord>> results,
            store_.FindProducingBatch(probes));
        for (size_t i = 0; i < out_items.size(); ++i) {
          const Pending& item = out_items[i];
          const std::vector<XformRecord>& rows = results[i];
          if (item.processor == workflow_sym_) {
            if (IsInteresting(interest_, workflow_sym_)) {
              PROVLIN_RETURN_IF_ERROR(AppendSourceBindings(
                  store_, RunName(item.run), rows, item.index, &bindings_));
            }
            continue;
          }
          bool interesting = IsInteresting(interest_, item.processor);
          std::set<std::pair<SymbolId, Index>> successors;
          for (const XformRecord& row : rows) {
            if (!row.has_in) continue;
            if (interesting) {
              PROVLIN_RETURN_IF_ERROR(AppendInputBinding(
                  store_, RunName(item.run), row, &bindings_));
            }
            successors.insert({row.in_port, row.in_index});
          }
          for (const auto& [in_port, idx] : successors) {
            next.push_back(
                {item.run, item.processor, in_port, idx, Side::kInput});
          }
        }
      }

      if (!in_items.empty()) {
        std::vector<provenance::PortProbe> probes;
        probes.reserve(in_items.size());
        for (const Pending& item : in_items) {
          probes.push_back({item.run, item.processor, item.port, item.index});
        }
        PROVLIN_ASSIGN_OR_RETURN(
            std::vector<std::vector<XferRecord>> results,
            store_.FindXfersIntoBatch(probes));
        for (size_t i = 0; i < in_items.size(); ++i) {
          const Pending& item = in_items[i];
          std::set<std::pair<SymbolId, SymbolId>> sources;
          for (const XferRecord& row : results[i]) {
            sources.insert({row.src_proc, row.src_port});
          }
          for (const auto& [src_proc, src_port] : sources) {
            next.push_back(
                {item.run, src_proc, src_port, item.index, Side::kOutput});
          }
        }
      }

      frontier = std::move(next);
    }
    return Status::OK();
  }

  std::vector<LineageBinding>& bindings() { return bindings_; }
  uint64_t steps() const { return steps_; }

 private:
  struct Pending {
    SymbolId run;
    SymbolId processor;
    SymbolId port;
    Index index;
    Side side;
  };

  const std::string& RunName(SymbolId run) const {
    return run_names_.at(run);
  }

  const provenance::TraceStore& store_;
  SymbolId workflow_sym_;
  InterestIds interest_;
  std::map<SymbolId, std::string> run_names_;
  std::vector<Pending> frontier_;
  std::set<std::tuple<SymbolId, SymbolId, SymbolId, Index, bool>> visited_;
  std::vector<LineageBinding> bindings_;
  uint64_t steps_ = 0;
};

}  // namespace

Result<LineageAnswer> NaiveLineage::Query(const LineageRequest& request) const {
  PROVLIN_TRACE_SPAN_VAR(span, "ni/query");
  if (span.active()) {
    span.SetArgs("runs=" + std::to_string(request.runs.size()));
  }
  LineageAnswer answer;
  // Probe counts come from the calling thread's counters, not the global
  // aggregate: under the concurrent service the global delta would charge
  // this query with every other worker's probes.
  storage::ThreadStats before = storage::ThisThreadStats();
  WallTimer timer;
  // Resolve the query to id space once; names the trace never recorded
  // cannot have lineage, so the answer is empty.
  auto proc_sym = store_->LookupSymbol(request.target.processor);
  auto port_sym = store_->LookupSymbol(request.target.port);
  if (proc_sym && port_sym) {
    Traversal traversal(*store_, request.interest);
    std::vector<std::string> runs;
    std::vector<provenance::PortProbe> probes;
    for (const std::string& run : request.runs) {
      auto run_sym = store_->LookupSymbol(run);
      if (!run_sym) continue;  // never recorded: no lineage
      runs.push_back(run);
      probes.push_back({*run_sym, *proc_sym, *port_sym, request.index});
    }
    // Auto-detect each run's starting side in one producing batch: a port
    // with producing xform rows is an output (includes workflow inputs via
    // their source rows); anything else is treated as an arc destination.
    if (!probes.empty()) {
      PROVLIN_ASSIGN_OR_RETURN(
          std::vector<std::vector<XformRecord>> detect,
          store_->FindProducingBatch(probes));
      for (size_t i = 0; i < runs.size(); ++i) {
        Side side = detect[i].empty() ? Side::kInput : Side::kOutput;
        traversal.Seed(runs[i], probes[i].run, *proc_sym, *port_sym,
                       request.index, side);
      }
      PROVLIN_RETURN_IF_ERROR(traversal.Run());
    }
    answer.bindings = std::move(traversal.bindings());
    answer.timing.graph_steps = traversal.steps();
  }
  answer.timing.t2_ms = timer.ElapsedMillis();
  answer.timing.trace_probes =
      storage::ThisThreadStats().probes() - before.probes();
  answer.timing.trace_descents =
      storage::ThisThreadStats().descents - before.descents;
  NormalizeBindings(&answer.bindings);
  PublishTiming(name(), answer.timing);
  return answer;
}

}  // namespace provlin::lineage

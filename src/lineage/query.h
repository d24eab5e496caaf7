#ifndef PROVLIN_LINEAGE_QUERY_H_
#define PROVLIN_LINEAGE_QUERY_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "values/index.h"
#include "workflow/dataflow.h"

namespace provlin::lineage {

/// The set 𝒫 of "interesting" processors of Def. 1. The reserved name
/// "workflow" selects the top-level workflow inputs, so queries can ask
/// for the user-supplied data a result derives from. An empty set means
/// *unfocused*: every processor (and the workflow inputs) is interesting.
using InterestSet = std::set<std::string>;

/// True when `processor` is interesting under `interest`.
inline bool IsInteresting(const InterestSet& interest,
                          const std::string& processor) {
  return interest.empty() || interest.count(processor) > 0;
}

/// Id-space form of 𝒫: the interest names resolved to SymbolIds once at
/// the top of a traversal, so the per-visit interest check compares
/// integers instead of re-hashing strings.
struct InterestIds {
  /// Empty 𝒫 = unfocused: everything is interesting.
  bool all = false;
  std::set<common::SymbolId> ids;

  /// Resolves `interest` through `resolve` — any callable mapping a name
  /// to std::optional<SymbolId>. Names the resolver does not know are
  /// dropped: they can never match a visited processor id.
  template <typename ResolveFn>
  static InterestIds Resolve(const InterestSet& interest, ResolveFn&& resolve) {
    InterestIds out;
    out.all = interest.empty();
    for (const std::string& name : interest) {
      std::optional<common::SymbolId> sym = resolve(name);
      if (sym.has_value()) out.ids.insert(*sym);
    }
    return out;
  }
};

/// Id-space overload of IsInteresting — the hot-path form.
inline bool IsInteresting(const InterestIds& interest,
                          common::SymbolId processor) {
  return interest.all || interest.ids.count(processor) > 0;
}

/// One element of a lineage answer: a binding ⟨P:X[p], v⟩ that the
/// queried value depends on, at an input port of an interesting
/// processor (or at a workflow input port).
struct LineageBinding {
  std::string run_id;
  workflow::PortRef port;
  Index index;
  std::string value_repr;

  std::string ToString() const {
    return run_id + ":<" + port.ToString() + index.ToString() + ", " +
           value_repr + ">";
  }

  bool operator==(const LineageBinding& o) const {
    return run_id == o.run_id && port == o.port && index == o.index &&
           value_repr == o.value_repr;
  }
  bool operator<(const LineageBinding& o) const {
    if (run_id != o.run_id) return run_id < o.run_id;
    if (!(port == o.port)) return port < o.port;
    if (index != o.index) return index < o.index;
    return value_repr < o.value_repr;
  }
};

/// Instrumented cost breakdown matching the paper's (s1)/(s2) split:
/// t1 = graph work (spec traversal for IndexProj; zero for NI, whose
/// whole cost is trace access), t2 = trace-database access.
struct LineageTiming {
  double t1_ms = 0.0;
  double t2_ms = 0.0;
  /// Index/scan probes issued against the trace database (from the
  /// storage layer's hardware-independent counters). This counts
  /// *logical* probes — batching never changes it.
  uint64_t trace_probes = 0;
  /// Physical B+-tree root-to-leaf descents behind those probes. Batched
  /// execution amortizes descents across sorted probes, so this drops
  /// below trace_probes.
  uint64_t trace_descents = 0;
  /// Nodes visited on the graph being traversed (provenance graph for
  /// NI, specification graph for IndexProj).
  uint64_t graph_steps = 0;
  /// True when the IndexProj plan was served from the cache.
  bool plan_cache_hit = false;

  double total_ms() const { return t1_ms + t2_ms; }
};

/// A lineage answer: the set of interesting bindings, sorted, plus the
/// cost breakdown.
struct LineageAnswer {
  std::vector<LineageBinding> bindings;
  LineageTiming timing;
};

/// One of a plan's trace queries in an EXPLAIN record, with the costs
/// the batched execution attributes to it, summed over the runs in
/// scope: the logical probes it issued (whether the storage layer or a
/// shared probe memo answered them), the trace rows it fetched, and the
/// answer bindings it contributed. Rendered when recorded, so a record
/// reads without the trace store.
struct ExplainStep {
  std::string kind;   ///< "consume", "source", or "source-via"
  std::string query;  ///< Q(P, X_i, p_i)
  uint64_t trace_probes = 0;
  uint64_t rows = 0;
  uint64_t bindings = 0;
};

/// EXPLAIN record of one IndexProj execution (§3.3): the plan's steps
/// and the costs that execution paid. One batch answers every step, so
/// its descents and probe time are shared and reported once per plan:
/// `plan` is the execution's own LineageTiming (s1 time and cache hit,
/// graph steps, and the s2 probes, descents and time).
struct ExplainResult {
  LineageTiming plan;
  std::vector<ExplainStep> steps;

  /// Human-readable: the s1 line, one line per step, the s2 line.
  std::string ToString() const;

  /// The same record as one JSON object — the slow-request log's
  /// EXPLAIN payload (DESIGN.md §14). Field-for-field what ToString()
  /// prints, so the CLI's `explain` and a logged request compare
  /// directly.
  std::string ToJson() const;
};

/// RAII installer mirroring provenance::ProbeBreakdownScope: while in
/// scope, an engine that keeps an EXPLAIN record (IndexProj) emplaces
/// the record of a Query() it runs on the calling thread into `*out`;
/// other engines leave it empty. nullptr records nothing. Scopes nest;
/// the previous slot is restored on destruction.
class ExplainScope {
 public:
  explicit ExplainScope(std::optional<ExplainResult>* out);
  ~ExplainScope();
  ExplainScope(const ExplainScope&) = delete;
  ExplainScope& operator=(const ExplainScope&) = delete;

  /// The calling thread's active slot (nullptr outside any scope).
  static std::optional<ExplainResult>* Active();

 private:
  std::optional<ExplainResult>* prev_;
};

/// Normalizes bindings in place: sorts, dedups, and reduces the answer
/// to its *maximal* bindings — a binding whose index extends the index
/// of another binding on the same run and port is covered by it (the
/// coarser binding already states that the whole containing value is in
/// the lineage) and is dropped. This makes the two lineage engines
/// return literally identical answers: the naïve traversal naturally
/// discovers redundant finer bindings when a value reaches a processor
/// both element-wise and whole (e.g. the GK workflow's two branches).
void NormalizeBindings(std::vector<LineageBinding>* bindings);

/// Publishes a finished query's cost breakdown into the process-wide
/// MetricsRegistry under lineage/* (plus a per-engine query counter,
/// e.g. "lineage/queries_indexproj"). Engines call this once at the end
/// of Query(); the per-query LineageTiming stays the caller-facing view,
/// the registry accumulates the process totals that `provlin stats`
/// exposes.
void PublishTiming(std::string_view engine, const LineageTiming& timing);

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_QUERY_H_

#ifndef PROVLIN_LINEAGE_ENGINE_H_
#define PROVLIN_LINEAGE_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lineage/query.h"

namespace provlin::lineage {

/// One lineage question, self-contained: which runs are in scope, which
/// binding ⟨target[index]⟩ is asked about, and the interest set 𝒫 that
/// focuses the answer. This is the uniform request shape of the lineage
/// API — single-run queries are simply requests with one run, and the
/// §3.4 multi-run sharing falls out of `runs` holding several.
struct LineageRequest {
  std::vector<std::string> runs;
  workflow::PortRef target;
  Index index;
  InterestSet interest;

  /// Convenience for the common single-run case.
  static LineageRequest SingleRun(std::string run, workflow::PortRef target,
                                  Index index, InterestSet interest = {}) {
    LineageRequest req;
    req.runs.push_back(std::move(run));
    req.target = std::move(target);
    req.index = std::move(index);
    req.interest = std::move(interest);
    return req;
  }

  /// Convenience for an explicit run set (§3.4 multi-run sharing).
  static LineageRequest MultiRun(std::vector<std::string> runs,
                                 workflow::PortRef target, Index index,
                                 InterestSet interest = {}) {
    LineageRequest req;
    req.runs = std::move(runs);
    req.target = std::move(target);
    req.index = std::move(index);
    req.interest = std::move(interest);
    return req;
  }

  std::string ToString() const {
    std::string runs_repr;
    for (const std::string& r : runs) {
      if (!runs_repr.empty()) runs_repr += ",";
      runs_repr += r;
    }
    return "lin(" + target.ToString() + index.ToString() + " @ {" +
           runs_repr + "})";
  }
};

/// Abstract lineage engine: anything that can answer lin(⟨target[q]⟩, 𝒫)
/// over a recorded trace. The two paper algorithms (NaiveLineage = NI,
/// IndexProjLineage = Alg. 2) implement it, and the CLI, examples,
/// equivalence tests, and the concurrent LineageService program against
/// this interface instead of the concrete types.
///
/// Query() is the single entry point and must be safe to call from many
/// threads at once on an engine whose trace store is quiescent — the
/// contract the batch service builds on.
class LineageEngine {
 public:
  virtual ~LineageEngine() = default;

  /// Engine identifier ("naive", "indexproj") for CLIs, logs, metrics.
  virtual std::string_view name() const = 0;

  /// Answers one request across all runs in its scope.
  virtual Result<LineageAnswer> Query(const LineageRequest& request) const = 0;
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_ENGINE_H_

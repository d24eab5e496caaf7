#ifndef PROVLIN_LINEAGE_NAIVE_LINEAGE_H_
#define PROVLIN_LINEAGE_NAIVE_LINEAGE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lineage/engine.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"

namespace provlin::lineage {

/// The paper's baseline NI: lin(⟨P:Y[p], v⟩, 𝒫) computed by the mutual
/// recursion of Def. 1 directly over the *extensional* provenance trace.
/// Each recursion step issues indexed trace-database probes (xform
/// inversion at processors, xfer lookup at arcs), so the total cost
/// grows with the length of the provenance path — the behaviour Fig. 9
/// quantifies. The workflow specification is never consulted.
///
/// Stateless between queries: concurrent Query() calls on a quiescent
/// store are safe.
class NaiveLineage : public LineageEngine {
 public:
  /// The store must outlive the engine. The Def. 1 traversal runs as a
  /// frontier-batched BFS: each level's probes (all producing probes,
  /// then all xfer probes) go to the trace store as one sorted batch,
  /// amortizing B+-tree descents.
  explicit NaiveLineage(const provenance::TraceStore* store) : store_(store) {}

  std::string_view name() const override { return "naive"; }

  /// Computes the lineage of ⟨target[index]⟩ over the request's runs.
  /// The target may be any processor port or a workflow output/input
  /// port; the side (output vs. input) is auto-detected from the trace.
  /// NI shares no *results* across runs (§3.4), but every run in scope
  /// traverses as one frontier: each level's probes carry their run, so
  /// a sharded store groups them by owning shard and fans the per-shard
  /// sub-batches out concurrently. Runs still expand independently, so
  /// the node set per run — and the answer — is that of a separate
  /// traversal per run.
  Result<LineageAnswer> Query(const LineageRequest& request) const override;

 private:
  const provenance::TraceStore* store_;
};

}  // namespace provlin::lineage

#endif  // PROVLIN_LINEAGE_NAIVE_LINEAGE_H_

// Reproduces Fig. 10: IndexProj response time on *partially unfocused*
// queries — the interesting set 𝒫 grows from 1 processor up to ~50% of
// the graph (l=75: 152 nodes), so the number of generated trace queries
// (s2 probes) grows proportionally.
//
// Expected shape (paper §4.2): response time grows with |𝒫| toward the
// NI/unfocused regime.

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

int main() {
  using namespace provlin;
  using bench::CheckResult;

  constexpr int kL = 75;
  constexpr int kD = 50;

  std::printf(
      "Fig. 10: IndexProj on partially unfocused queries (l=%d, d=%d)\n"
      "|P| grows to ~50%% of the %d-node graph\n\n",
      kL, kD, testbed::SyntheticNodeCount(kL));

  auto wb = CheckResult(testbed::Workbench::Synthetic(kL), "workbench");
  CheckResult(wb->RunSynthetic(kD, "r0"), "run");

  workflow::PortRef target{workflow::kWorkflowProcessor, "RESULT"};
  Index q({1, 2});

  // Grow 𝒫 along the two chains, starting from the generator.
  auto interest_of = [&](int size) {
    lineage::InterestSet interest{testbed::kListGen};
    int added = 1;
    for (int k = kL; k >= 1 && added < size; --k) {
      interest.insert(testbed::ChainAProc(k));
      if (++added >= size) break;
      interest.insert(testbed::ChainBProc(k));
      ++added;
    }
    return interest;
  };

  bench::TablePrinter table({"|P|", "pct_of_nodes", "best_ms", "probes",
                             "descents", "bindings", "trace_queries"});
  bench::JsonWriter json("fig10");
  const int sizes[] = {1, 4, 8, 16, 24, 32, 48, 64, 76};
  for (int size : sizes) {
    lineage::InterestSet interest = interest_of(size);
    lineage::LineageAnswer answer;
    double best = CheckResult(
        bench::BestOfFive([&]() -> Status {
          auto a = wb->IndexProj()->Query(
              lineage::LineageRequest::SingleRun("r0", target, q, interest));
          PROVLIN_RETURN_IF_ERROR(a.status());
          answer = std::move(a).value();
          return Status::OK();
        }),
        "query");
    auto plan = CheckResult(wb->IndexProj()->Plan(target, q, interest),
                            "plan");
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.0f%%",
                  100.0 * static_cast<double>(interest.size()) /
                      testbed::SyntheticNodeCount(kL));
    table.AddRow({std::to_string(interest.size()), pct, bench::Ms(best),
                  bench::Num(answer.timing.trace_probes),
                  bench::Num(answer.timing.trace_descents),
                  bench::Num(answer.bindings.size()),
                  bench::Num(plan->queries.size())});
    json.Add("P" + std::to_string(interest.size()) + "_batched", best,
             answer.timing.trace_probes, answer.timing.trace_descents);
  }
  table.Print();

  // NI reference point for the same focused query.
  lineage::NaiveLineage naive = wb->Naive();
  double ni = CheckResult(
      bench::BestOfFive([&]() -> Status {
        return naive.Query(lineage::LineageRequest::SingleRun("r0", target, q, {testbed::kListGen})).status();
      }),
      "ni");
  std::printf("\nNI reference (same target, focused): %.3f ms\n", ni);
  json.Write();
  return 0;
}

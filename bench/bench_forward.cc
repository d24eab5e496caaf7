// Extension bench (not in the paper): forward/impact query response time
// across strategies as a function of chain length l — the dual of
// Fig. 9. The spec-graph forward engine composes index patterns once;
// the naive engine walks the trace per element, so its probe count grows
// with both l and d.
//
// Writes BENCH_forward.json: per l, both engines' probes and descents
// (deterministic — one thread, a fixed workload — so CI checks them
// against bench/baselines/BENCH_forward.json).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "lineage/forward_lineage.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

int main() {
  using namespace provlin;
  using bench::CheckResult;

  std::printf(
      "Forward (impact) query times vs l, d=25: naive vs pattern engine\n"
      "query: impact of LISTGEN_1:list[2] on the workflow output\n\n");

  bench::TablePrinter table({"l", "naive_ms", "fwdproj_ms", "naive_probes",
                             "fwdproj_probes", "bindings"});
  bench::JsonWriter json("forward");
  for (int l : {10, 28, 50, 75, 100}) {
    auto wb = CheckResult(testbed::Workbench::Synthetic(l), "workbench");
    CheckResult(wb->RunSynthetic(25, "r0"), "run");

    workflow::PortRef target{testbed::kListGen, "list"};
    Index p({1});
    lineage::InterestSet interest{workflow::kWorkflowProcessor};

    lineage::NaiveForwardLineage naive(wb->store());
    lineage::LineageAnswer ni_answer;
    double ni = CheckResult(
        bench::BestOfFive([&]() -> Status {
          auto a = naive.Query("r0", target, p, interest);
          PROVLIN_RETURN_IF_ERROR(a.status());
          ni_answer = std::move(a).value();
          return Status::OK();
        }),
        "naive");

    auto fwd = CheckResult(
        lineage::ForwardIndexProjLineage::Create(wb->flow(), wb->store()),
        "fwd engine");
    lineage::LineageAnswer ip_answer;
    double ip = CheckResult(
        bench::BestOfFive([&]() -> Status {
          auto a = fwd.Query("r0", target, p, interest);
          PROVLIN_RETURN_IF_ERROR(a.status());
          ip_answer = std::move(a).value();
          return Status::OK();
        }),
        "fwdproj");

    if (ni_answer.bindings != ip_answer.bindings) {
      std::fprintf(stderr, "FATAL: engines disagree at l=%d\n", l);
      return 1;
    }
    table.AddRow({std::to_string(l), bench::Ms(ni), bench::Ms(ip),
                  bench::Num(ni_answer.timing.trace_probes),
                  bench::Num(ip_answer.timing.trace_probes),
                  bench::Num(ip_answer.bindings.size())});
    const std::string cfg = "l" + std::to_string(l);
    json.Add(cfg + "_naive", ni, ni_answer.timing.trace_probes,
             ni_answer.timing.trace_descents);
    json.Add(cfg + "_fwdproj", ip, ip_answer.timing.trace_probes,
             ip_answer.timing.trace_descents);
  }
  table.Print();
  json.Write();
  return 0;
}

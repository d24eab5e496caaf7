// Lineage engines on hand-built workflows: the paper's Fig. 3 example,
// focused/unfocused behaviour, granularity loss at coarse processors,
// template caching, and what a request may add to the symbol table.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "engine/builtin_activities.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "testbed/workbench.h"
#include "workflow/builder.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using workflow::DataflowBuilder;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

/// The paper's Fig. 3: Q iterates over v, R maps w to a list, P crosses
/// Q's output with R's output while consuming constant c whole.
std::unique_ptr<Workbench> Fig3() {
  DataflowBuilder b("fig3");
  b.Input("v", PortType::String(1));
  b.Input("w", PortType::String(0));
  b.Input("c", PortType::String(0));
  b.Output("y", PortType::String(2));
  b.Proc("Q")
      .Activity("to_upper")
      .In("X", PortType::String(0))
      .Out("Y", PortType::String(0));
  b.Proc("R")
      .Activity("split_words")
      .In("X", PortType::String(0))
      .Out("Y", PortType::String(1));
  b.Proc("P")
      .Activity("identity")
      .In("X1", PortType::String(0))
      .In("X2", PortType::String(0))
      .In("X3", PortType::String(0))
      .Out("Y1", PortType::String(0))
      .Out("Y2", PortType::String(0))
      .Out("Y3", PortType::String(0));
  b.Arc("workflow:v", "Q:X");
  b.Arc("workflow:c", "P:X2");
  b.Arc("workflow:w", "R:X");
  b.Arc("Q:Y", "P:X1");
  b.Arc("R:Y", "P:X3");
  b.Arc("P:Y1", "workflow:y");
  auto flow = b.Build();
  EXPECT_TRUE(flow.ok()) << flow.status().ToString();
  auto registry = std::make_shared<engine::ActivityRegistry>();
  engine::RegisterBuiltinActivities(registry.get());
  auto wb = Workbench::Create(*flow, registry);
  EXPECT_TRUE(wb.ok());
  auto r = (*wb)->Run({{"v", Value::StringList({"a1", "a2", "a3"})},
                       {"w", Value::Str("b1 b2")},
                       {"c", Value::Str("c")}},
                      "run");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(*wb);
}

TEST(Lineage, PaperFig3WorkedExample) {
  // lin(P:Y[h,l], {Q, R}) = { ⟨Q:X[h], v⟩, ⟨R:X[], w⟩ } (§2.4).
  auto wb = Fig3();
  InterestSet interest{"Q", "R"};
  PortRef target{"P", "Y1"};
  Index q({1, 0});  // h=2, l=1 in paper's 1-based notation

  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", target, q, interest));
  ASSERT_TRUE(ni.ok()) << ni.status().ToString();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", target, q, interest));
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();

  EXPECT_EQ(ni->bindings, ip->bindings);
  ASSERT_EQ(ip->bindings.size(), 2u);
  // ⟨Q:X[2], "a2"⟩ — fine-grained.
  EXPECT_EQ(ip->bindings[0].port.ToString(), "Q:X");
  EXPECT_EQ(ip->bindings[0].index, Index({1}));
  EXPECT_EQ(ip->bindings[0].value_repr, "\"a2\"");
  // ⟨R:X[], "b1 b2"⟩ — coarse: R consumed w whole.
  EXPECT_EQ(ip->bindings[1].port.ToString(), "R:X");
  EXPECT_EQ(ip->bindings[1].index, Index());
  EXPECT_EQ(ip->bindings[1].value_repr, "\"b1 b2\"");
}

TEST(Lineage, PaperFig3WholeValueQuery) {
  // lin(P:Y[], {Q,R}): coarse query returns every Q element + R whole.
  auto wb = Fig3();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index(),
                                   InterestSet{"Q", "R"}));
  ASSERT_TRUE(ip.ok());
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index(),
                              InterestSet{"Q", "R"}));
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  EXPECT_EQ(ip->bindings.size(), 4u);  // Q:X[1..3] + R:X[]
}

TEST(Lineage, ConstantInputAttributedViaP) {
  // Focused on P itself: its input bindings include the constant c.
  auto wb = Fig3();
  auto ip =
      wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                             InterestSet{"P"}));
  ASSERT_TRUE(ip.ok());
  ASSERT_EQ(ip->bindings.size(), 3u);
  EXPECT_EQ(ip->bindings[0].port.ToString(), "P:X1");
  EXPECT_EQ(ip->bindings[1].port.ToString(), "P:X2");
  EXPECT_EQ(ip->bindings[1].value_repr, "\"c\"");
  EXPECT_EQ(ip->bindings[2].port.ToString(), "P:X3");
}

TEST(Lineage, WorkflowInputsAsInterestSet) {
  auto wb = Fig3();
  InterestSet interest{kWorkflowProcessor};
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({2, 1}), interest));
  ASSERT_TRUE(ni.ok());
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({2, 1}),
                                   interest));
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  // v (fine: element [2]), w (whole), c (whole).
  ASSERT_EQ(ip->bindings.size(), 3u);
  EXPECT_EQ(ip->bindings[0].port.ToString(), "workflow:c");
  EXPECT_EQ(ip->bindings[1].port.ToString(), "workflow:v");
  EXPECT_EQ(ip->bindings[1].index, Index({2}));
  EXPECT_EQ(ip->bindings[1].value_repr, "\"a3\"");
  EXPECT_EQ(ip->bindings[2].port.ToString(), "workflow:w");
}

TEST(Lineage, UnfocusedQueryCollectsEverything) {
  auto wb = Fig3();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                                   InterestSet{}));
  ASSERT_TRUE(ip.ok());
  auto ni =
      wb->Naive().Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}), InterestSet{}));
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  // P's three inputs + Q:X element + R:X + three workflow inputs.
  EXPECT_GE(ip->bindings.size(), 6u);
}

TEST(Lineage, QueryFromIntermediatePort) {
  auto wb = Fig3();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"Q", "Y"}, Index({1}),
                                   InterestSet{kWorkflowProcessor}));
  ASSERT_TRUE(ip.ok());
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"Q", "Y"}, Index({1}),
                              InterestSet{kWorkflowProcessor}));
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  ASSERT_EQ(ip->bindings.size(), 1u);
  EXPECT_EQ(ip->bindings[0].port.ToString(), "workflow:v");
  EXPECT_EQ(ip->bindings[0].index, Index({1}));
}

TEST(Lineage, UnknownTargetsFailCleanly) {
  auto wb = Fig3();
  const provenance::TraceStore& store = *wb->store();
  EXPECT_FALSE(
      wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"ghost", "Y"}, Index(), {})).ok());
  EXPECT_FALSE(
      wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "ghost"}, Index(), {})).ok());
  EXPECT_FALSE(wb->IndexProj()
                   ->Query(LineageRequest::SingleRun("run", {kWorkflowProcessor, "ghost"}, Index(), {}))
                   .ok());
  // Nothing a request names is interned before it is validated: an
  // unknown target is NotFound and leaves the symbol table as it was.
  const std::vector<PortRef> unknown = {{"NO_SUCH_PROC_", "zz_port"},
                                        {"P", "zz_p_port"},
                                        {kWorkflowProcessor, "zz_wf_port"}};
  for (const PortRef& target : unknown) {
    auto answer = wb->IndexProj()->Query(
        LineageRequest::SingleRun("run", target, Index({0}), {"Q"}));
    EXPECT_EQ(answer.status().code(), StatusCode::kNotFound)
        << target.ToString();
    auto plan = wb->IndexProj()->Plan(target, Index({0}), {"Q"});
    EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(store.LookupSymbol("NO_SUCH_PROC_"), std::nullopt);
  EXPECT_EQ(store.LookupSymbol("zz_port"), std::nullopt);
  EXPECT_EQ(store.LookupSymbol("zz_p_port"), std::nullopt);
  EXPECT_EQ(store.LookupSymbol("zz_wf_port"), std::nullopt);
  // An unknown 𝒫 name is interesting nowhere and is not interned either.
  for (int i = 0; i < 3; ++i) {
    const std::string garbage = "GARBAGE_" + std::to_string(i);
    auto answer = wb->IndexProj()->Query(LineageRequest::SingleRun(
        "run", {"P", "Y1"}, Index({0, 0}), {garbage}));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer->bindings.empty());
    EXPECT_EQ(store.LookupSymbol(garbage), std::nullopt) << garbage;
  }
  auto mixed = wb->IndexProj()->Query(LineageRequest::SingleRun(
      "run", {"P", "Y1"}, Index({0, 0}), {"GARBAGE_9", "Q"}));
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->bindings.size(), 1u);
  EXPECT_EQ(mixed->bindings[0].port.ToString(), "Q:X");
  EXPECT_EQ(store.LookupSymbol("GARBAGE_9"), std::nullopt);
  // NI on a nonexistent port finds nothing (empty, not an error — the
  // trace simply has no matching events).
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"ghost", "Y"}, Index(), {}));
  ASSERT_TRUE(ni.ok());
  EXPECT_TRUE(ni->bindings.empty());
}

TEST(Lineage, UnknownRunYieldsEmptyAnswer) {
  auto wb = Fig3();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("nope", {"P", "Y1"}, Index({0, 0}),
                                   InterestSet{"Q"}));
  ASSERT_TRUE(ip.ok());
  EXPECT_TRUE(ip->bindings.empty());
}

TEST(Lineage, PlanCacheHitsOnRepeatedQueries) {
  auto wb = Fig3();
  wb->IndexProj()->ClearPlanCache();
  auto first = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                                      InterestSet{"Q"}));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->timing.plan_cache_hit);
  auto second = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                                       InterestSet{"Q"}));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->timing.plan_cache_hit);
  EXPECT_EQ(first->bindings, second->bindings);
  EXPECT_EQ(wb->IndexProj()->plan_cache_size(), 1u);
  // A different interest set or index of the same length instantiates
  // the same template: still one entry, and a hit.
  auto other_interest = wb->IndexProj()->Query(LineageRequest::SingleRun(
      "run", {"P", "Y1"}, Index({0, 0}), InterestSet{"R"}));
  ASSERT_TRUE(other_interest.ok());
  EXPECT_TRUE(other_interest->timing.plan_cache_hit);
  auto other_index = wb->IndexProj()->Query(LineageRequest::SingleRun(
      "run", {"P", "Y1"}, Index({2, 1}), InterestSet{"Q"}));
  ASSERT_TRUE(other_index.ok());
  EXPECT_TRUE(other_index->timing.plan_cache_hit);
  EXPECT_EQ(wb->IndexProj()->plan_cache_size(), 1u);
  // A different length is a different template.
  auto shorter = wb->IndexProj()->Query(LineageRequest::SingleRun(
      "run", {"P", "Y1"}, Index({0}), InterestSet{"Q"}));
  ASSERT_TRUE(shorter.ok());
  EXPECT_FALSE(shorter->timing.plan_cache_hit);
  EXPECT_EQ(wb->IndexProj()->plan_cache_size(), 2u);
}

/// The longest slot end of any processor: the length past which the
/// template cache keys every |q| alike.
size_t LongestSlotEnd(const workflow::Dataflow& flow,
                      const workflow::DepthMap& depths) {
  size_t cap = 0;
  for (const workflow::Processor& proc : flow.processors()) {
    for (const auto& [port, slot] : depths.ForProcessor(proc.name).slots) {
      cap = std::max(cap, slot.offset + slot.length);
    }
  }
  return cap;
}

TEST(Lineage, PlanCacheIsBoundedByIndexLength) {
  // The wire admits indices of up to 2^20 components; a longer q than
  // any projection reads must reuse a template, not add one.
  auto wb = Workbench::Synthetic(3);
  ASSERT_TRUE(wb.ok());
  ASSERT_TRUE((*wb)->RunSynthetic(3, "r0").ok());
  IndexProjLineage* ip = (*wb)->IndexProj();
  ip->ClearPlanCache();
  const size_t cap = LongestSlotEnd(*(*wb)->flow(), ip->depths());
  ASSERT_EQ(cap, 2u);  // RESULT crosses two lists
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<LineageBinding> at_cap;
  for (size_t len = 0; len <= 64; ++len) {
    auto answer = ip->Query(LineageRequest::SingleRun(
        "r0", result, Index(std::vector<int32_t>(len, 1)), {}));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (len == cap) at_cap = answer->bindings;
    // Components past the iteration depth are dropped (Def. 4).
    if (len > cap) {
      EXPECT_EQ(answer->bindings, at_cap) << "|q|=" << len;
    }
  }
  EXPECT_FALSE(at_cap.empty());
  EXPECT_LE(ip->plan_cache_size(), cap + 1);
  EXPECT_EQ(ip->plans_built(), ip->plan_cache_size());
}

TEST(Lineage, PlanListsOneQueryPerInterestingProcessorInput) {
  auto wb = Fig3();
  auto plan = wb->IndexProj()->Plan({"P", "Y1"}, Index({0, 0}),
                                    InterestSet{"Q", "R"});
  ASSERT_TRUE(plan.ok());
  // Q:X and R:X — one focused trace query each.
  EXPECT_EQ((*plan)->queries.size(), 2u);
  EXPECT_GT((*plan)->graph_steps, 0u);
}

TEST(Lineage, GranularityLossThroughCoarseProcessorIsShared) {
  // Downstream of R (coarse), both engines report R's whole input; the
  // precision of the Q branch is preserved independently.
  auto wb = Fig3();
  InterestSet interest{kWorkflowProcessor};
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"P", "Y3"}, Index({0, 1}), interest));
  auto ip =
      wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y3"}, Index({0, 1}), interest));
  ASSERT_TRUE(ni.ok());
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST(Lineage, TimingBreakdownPopulated) {
  auto wb = Fig3();
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                                   InterestSet{"Q"}));
  ASSERT_TRUE(ip.ok());
  EXPECT_GT(ip->timing.trace_probes, 0u);
  EXPECT_GT(ip->timing.graph_steps, 0u);
  EXPECT_GE(ip->timing.t1_ms, 0.0);
  EXPECT_GE(ip->timing.t2_ms, 0.0);
  auto ni = wb->Naive().Query(LineageRequest::SingleRun("run", {"P", "Y1"}, Index({0, 0}),
                              InterestSet{"Q"}));
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->timing.t1_ms, 0.0);  // NI has no spec-graph phase
  EXPECT_GT(ni->timing.trace_probes, ip->timing.trace_probes);
}

}  // namespace
}  // namespace provlin::lineage

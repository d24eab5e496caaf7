// Forward (impact) lineage: unit behaviour on known workflows.

#include "lineage/forward_lineage.h"

#include <gtest/gtest.h>

#include "lineage/index_pattern.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

TEST(IndexPattern, BasicsAndMatching) {
  IndexPattern p(Index({1, 2}));
  EXPECT_EQ(p.ToString(), "[2,3]");
  EXPECT_TRUE(p.Overlaps(Index({1, 2})));
  EXPECT_TRUE(p.Overlaps(Index({1})));       // coarser covering index
  EXPECT_TRUE(p.Overlaps(Index({1, 2, 9}))); // finer index below
  EXPECT_FALSE(p.Overlaps(Index({1, 3})));
  EXPECT_FALSE(p.Overlaps(Index({0})));
  EXPECT_TRUE(p.Overlaps(Index()));          // [] overlaps everything
}

TEST(IndexPattern, WildcardsAndKnownPrefix) {
  IndexPattern p;
  p.AppendWildcard();
  p.AppendKnown(4);
  EXPECT_EQ(p.ToString(), "[*,5]");
  EXPECT_TRUE(p.Overlaps(Index({9, 4})));
  EXPECT_FALSE(p.Overlaps(Index({9, 5})));
  EXPECT_TRUE(p.Overlaps(Index({9})));
  EXPECT_EQ(p.KnownPrefix(), Index());  // leading wildcard blocks prefix

  IndexPattern q(Index({3}));
  q.AppendWildcard();
  EXPECT_EQ(q.KnownPrefix(), Index({3}));
  EXPECT_FALSE(q.AllWildcards());
  EXPECT_TRUE(IndexPattern::Any().AllWildcards());
}

class ForwardSynthetic : public ::testing::Test {
 protected:
  void SetUp() override {
    wb_ = std::move(*Workbench::Synthetic(3));
    ASSERT_TRUE(wb_->RunSynthetic(4, "r0").ok());
    auto fwd = ForwardIndexProjLineage::Create(wb_->flow(), wb_->store());
    ASSERT_TRUE(fwd.ok());
    fwd_.emplace(std::move(*fwd));
  }

  NaiveForwardLineage Naive() { return NaiveForwardLineage(wb_->store()); }

  std::unique_ptr<Workbench> wb_;
  std::optional<ForwardIndexProjLineage> fwd_;
};

TEST_F(ForwardSynthetic, ElementImpactsOneRowAndOneColumn) {
  // Element e1 of the generated list flows down both chains; through the
  // cross product it reaches row 1 (via chain A) and column 1 (via chain
  // B) of the final d*d result.
  PortRef target{testbed::kListGen, "list"};
  InterestSet interest{kWorkflowProcessor};

  auto ni = Naive().Query("r0", target, Index({1}), interest);
  ASSERT_TRUE(ni.ok()) << ni.status().ToString();
  auto ip = fwd_->Query("r0", target, Index({1}), interest);
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_EQ(ni->bindings, ip->bindings);

  // 4 row entries + 4 column entries, overlapping at [1,1]: 7 bindings.
  ASSERT_EQ(ip->bindings.size(), 7u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.port.ToString(), "workflow:RESULT");
    EXPECT_TRUE(b.index[0] == 1 || b.index[1] == 1) << b.ToString();
  }
}

TEST_F(ForwardSynthetic, ImpactThroughOneChainOnly) {
  // From a mid-chain-A binding, the impact covers exactly row 2.
  PortRef target{testbed::ChainAProc(2), "y"};
  auto ip = fwd_->Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  ASSERT_EQ(ip->bindings.size(), 4u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.index[0], 2) << b.ToString();
  }
  auto ni = Naive().Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, FocusedOnIntermediateProcessor) {
  // Impact of list element 0 on CHAINB_2's outputs only.
  PortRef target{kWorkflowProcessor, "ListSize"};
  InterestSet interest{testbed::ChainBProc(2)};
  auto ip = fwd_->Query("r0", target, Index(), interest);
  ASSERT_TRUE(ip.ok());
  // The size scalar impacts every element: 4 out bindings of CHAINB_2.
  EXPECT_EQ(ip->bindings.size(), 4u);
  auto ni = Naive().Query("r0", target, Index(), interest);
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, WholeValueImpactCoversEverything) {
  PortRef target{testbed::kListGen, "list"};
  auto ip = fwd_->Query("r0", target, Index(), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->bindings.size(), 16u);  // the full 4x4 result
  auto ni = Naive().Query("r0", target, Index(), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, ForwardFromWorkflowOutputIsEmpty) {
  auto ip = fwd_->Query("r0", {kWorkflowProcessor, "RESULT"}, Index({0, 0}),
                        {});
  ASSERT_TRUE(ip.ok());
  EXPECT_TRUE(ip->bindings.empty());
}

TEST_F(ForwardSynthetic, UnknownTargetFails) {
  EXPECT_FALSE(fwd_->Query("r0", {"ghost", "y"}, Index(), {}).ok());
  EXPECT_FALSE(
      fwd_->Query("r0", {testbed::kListGen, "ghost"}, Index(), {}).ok());
}

TEST_F(ForwardSynthetic, ProbeAsymmetryFavorsIndexProj) {
  PortRef target{kWorkflowProcessor, "ListSize"};
  InterestSet interest{kWorkflowProcessor};
  auto ni = Naive().Query("r0", target, Index(), interest);
  auto ip = fwd_->Query("r0", target, Index(), interest);
  ASSERT_TRUE(ni.ok());
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  EXPECT_GT(ni->timing.trace_probes, ip->timing.trace_probes);
}

TEST_F(ForwardSynthetic, MultiRunImpact) {
  ASSERT_TRUE(wb_->RunSynthetic(3, "r1").ok());
  auto ip = fwd_->QueryMultiRun({"r0", "r1"}, {testbed::kListGen, "list"},
                                Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  std::set<std::string> runs;
  for (const auto& b : ip->bindings) runs.insert(b.run_id);
  EXPECT_EQ(runs, (std::set<std::string>{"r0", "r1"}));
}

TEST_F(ForwardSynthetic, TargetAtProcessorInputPort) {
  // Starting at a consumer-side binding: impact of the element arriving
  // at CHAINB_2:x[2] covers column 2 of the result.
  PortRef target{testbed::ChainBProc(2), "x"};
  auto ip = fwd_->Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  ASSERT_EQ(ip->bindings.size(), 4u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.index[1], 2) << b.ToString();
  }
  auto ni = Naive().Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, PlanCacheReusedAcrossForwardQueries) {
  PortRef target{testbed::kListGen, "list"};
  fwd_->ClearPlanCache();
  auto first = fwd_->Query("r0", target, Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->timing.plan_cache_hit);
  auto second = fwd_->Query("r0", target, Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->timing.plan_cache_hit);
  EXPECT_EQ(first->bindings, second->bindings);
}

// Forward requests name a target, an index and 𝒫; answering them must
// not grow the store's saved dictionaries. NI's visited set and the
// answer assembly key on index paths, and the plan cache keys on the
// request as named, with the target checked against the dataflow before
// the planner interns anything.
TEST_F(ForwardSynthetic, RequestsDoNotGrowTheStoreDictionaries) {
  const PortRef target{testbed::kListGen, "list"};
  NaiveForwardLineage naive = Naive();
  // Whatever answering a stored index needs is interned by now.
  ASSERT_TRUE(naive.Query("r0", target, Index({1}), {}).ok());
  auto unfocused = fwd_->Query("r0", target, Index({1}), {});
  ASSERT_TRUE(unfocused.ok()) << unfocused.status().ToString();
  ASSERT_FALSE(unfocused->bindings.empty());
  const storage::Database& db = *wb_->db();
  const size_t indices = db.index_dict().size();
  const size_t symbols = db.symbols().size();

  for (int i = 0; i < 500; ++i) {
    const Index fresh({1000 + i});
    ASSERT_TRUE(naive.Query("r0", target, fresh, {}).ok());
    ASSERT_TRUE(fwd_->Query("r0", target, fresh, {}).ok());
    // A 𝒫 of only unknown names is focused on nothing.
    const InterestSet unknown{"NOBODY_" + std::to_string(i)};
    auto ni = naive.Query("r0", target, Index({1}), unknown);
    ASSERT_TRUE(ni.ok()) << ni.status().ToString();
    EXPECT_TRUE(ni->bindings.empty());
    auto ip = fwd_->Query("r0", target, Index({1}), unknown);
    ASSERT_TRUE(ip.ok()) << ip.status().ToString();
    EXPECT_TRUE(ip->bindings.empty());
    // An unknown target: nothing recorded for NI, no port for IndexProj.
    const PortRef nowhere{"NO_SUCH_" + std::to_string(i), "out"};
    auto ni_nowhere = naive.Query("r0", nowhere, Index({1}), {});
    ASSERT_TRUE(ni_nowhere.ok()) << ni_nowhere.status().ToString();
    EXPECT_TRUE(ni_nowhere->bindings.empty());
    EXPECT_TRUE(fwd_->Query("r0", nowhere, Index({1}), {}).status().IsNotFound());
  }
  EXPECT_EQ(db.index_dict().size(), indices);
  EXPECT_EQ(db.symbols().size(), symbols);

  // The unfocused plan kept its own key: still cached, same answer.
  auto again = fwd_->Query("r0", target, Index({1}), {});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->timing.plan_cache_hit);
  EXPECT_EQ(again->bindings, unfocused->bindings);
}

}  // namespace
}  // namespace provlin::lineage

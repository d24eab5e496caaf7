// The central correctness property of the reproduction: on every
// workflow, input, query target, index, and interest set, the IndexProj
// algorithm (Alg. 2, spec-graph traversal + index projection) returns
// EXACTLY the bindings of the naive Def. 1 traversal of the extensional
// provenance trace — while issuing far fewer trace probes on focused
// queries.

#include <gtest/gtest.h>

#include "engine/builtin_activities.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "tests/random_workflow.h"
#include "tests/reference_ni.h"
#include "testbed/gk_workflow.h"
#include "testbed/pd_workflow.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using testbed_testing::GeneratedWorkflow;
using testbed_testing::IsDotShapeMismatch;
using testbed_testing::MakeRandomWorkflow;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceTest, IndexProjMatchesNaiveOnRandomWorkflows) {
  uint64_t seed = GetParam();
  GeneratedWorkflow gen = MakeRandomWorkflow(seed);
  ASSERT_NE(gen.flow, nullptr);

  auto registry = std::make_shared<engine::ActivityRegistry>();
  engine::RegisterBuiltinActivities(registry.get());
  auto wb_result = Workbench::Create(gen.flow, registry);
  ASSERT_TRUE(wb_result.ok());
  auto wb = std::move(*wb_result);

  auto run = wb->Run(gen.inputs, "r0");
  if (!run.ok() && IsDotShapeMismatch(run.status())) {
    GTEST_SKIP() << "seed " << seed << ": ragged dot pair, skipped";
  }
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  Random rng(seed * 31 + 7);

  // Enumerate query targets: every workflow output and every processor
  // output port that holds a value.
  struct Target {
    PortRef port;
    Value value;
  };
  std::vector<Target> targets;
  for (const auto& [port, value] : run->outputs) {
    targets.push_back({PortRef{kWorkflowProcessor, port}, value});
  }
  for (const workflow::Processor& proc : gen.flow->processors()) {
    for (const workflow::Port& port : proc.outputs) {
      auto it = run->port_values.find(proc.name + ":" + port.name);
      if (it != run->port_values.end()) {
        targets.push_back({PortRef{proc.name, port.name}, it->second});
      }
    }
  }

  // Interest sets: unfocused, workflow-inputs only, one random
  // processor, and a random half of the processors.
  std::vector<InterestSet> interests;
  interests.push_back({});
  interests.push_back({kWorkflowProcessor});
  {
    const auto& procs = gen.flow->processors();
    InterestSet one{procs[rng.Uniform(procs.size())].name};
    interests.push_back(one);
    InterestSet half;
    for (const auto& p : procs) {
      if (rng.Bernoulli(0.5)) half.insert(p.name);
    }
    if (half.empty()) half.insert(procs.front().name);
    half.insert(kWorkflowProcessor);
    interests.push_back(half);
  }

  // Both algorithms through the uniform engine interface — the property
  // is about the abstract contract, not the concrete types.
  const LineageEngine* naive = wb->Engine("naive");
  const LineageEngine* index_proj = wb->Engine("indexproj");
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(index_proj, nullptr);
  int checked = 0;
  for (const Target& target : targets) {
    // Query indices: whole value, plus up to two random leaf indices and
    // one random level-1 index.
    std::vector<Index> indices{Index()};
    std::vector<Index> leaves = target.value.LeafIndices();
    if (!leaves.empty()) {
      indices.push_back(leaves[rng.Uniform(leaves.size())]);
      indices.push_back(leaves[rng.Uniform(leaves.size())]);
    }
    if (target.value.is_list() && target.value.list_size() > 0) {
      indices.push_back(
          Index({static_cast<int32_t>(rng.Uniform(target.value.list_size()))}));
    }

    for (const Index& q : indices) {
      for (const InterestSet& interest : interests) {
        LineageRequest req =
            LineageRequest::SingleRun("r0", target.port, q, interest);
        auto ni = naive->Query(req);
        ASSERT_TRUE(ni.ok())
            << "NI failed on " << target.port.ToString() << q.ToString()
            << ": " << ni.status().ToString();
        auto ip = index_proj->Query(req);
        ASSERT_TRUE(ip.ok())
            << "IndexProj failed on " << target.port.ToString()
            << q.ToString() << ": " << ip.status().ToString();
        ASSERT_EQ(ni->bindings, ip->bindings)
            << "divergence at " << target.port.ToString() << q.ToString()
            << " with |P|=" << interest.size() << " (seed " << seed << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Range<uint64_t>(1, 81));

// ---------------------------------------------------------------------------
// Batched probe execution is purely physical: both engines must return
// the bindings of the depth-first reference NI byte for byte. NI must
// issue the oracle's logical probes (it expands the same nodes) and may
// only save descents; IndexProj's logical probes must be exactly those
// its EXPLAIN record attributes to the plan's steps.
// ---------------------------------------------------------------------------

void ExpectModesAgree(testbed::Workbench* wb, const std::string& run_id,
                      const std::vector<std::pair<PortRef, Index>>& queries,
                      const std::vector<InterestSet>& interests) {
  oracle::ReferenceNaiveLineage reference(wb->store());
  NaiveLineage ni(wb->store());
  auto ip = IndexProjLineage::Create(wb->flow(), wb->store());
  ASSERT_TRUE(ip.ok());

  for (const auto& [port, q] : queries) {
    for (const InterestSet& interest : interests) {
      LineageRequest req =
          LineageRequest::SingleRun(run_id, port, q, interest);
      auto tag = [&] {
        return port.ToString() + q.ToString() + " |P|=" +
               std::to_string(interest.size());
      };

      auto want = reference.Query(req);
      auto nb = ni.Query(req);
      ASSERT_TRUE(want.ok()) << tag() << ": " << want.status().ToString();
      ASSERT_TRUE(nb.ok()) << tag() << ": " << nb.status().ToString();
      EXPECT_EQ(nb->bindings, want->bindings) << "NI diverges at " << tag();
      EXPECT_EQ(nb->timing.trace_probes, want->timing.trace_probes)
          << "NI logical probes changed at " << tag();
      EXPECT_LE(nb->timing.trace_descents, want->timing.trace_descents)
          << "NI batching added descents at " << tag();
      EXPECT_EQ(nb->timing.graph_steps, want->timing.graph_steps)
          << "NI visited other nodes at " << tag();

      ExplainResult explained;
      auto ib = ip->Explain(req, &explained);
      ASSERT_TRUE(ib.ok()) << tag() << ": " << ib.status().ToString();
      EXPECT_EQ(ib->bindings, want->bindings)
          << "IndexProj diverges at " << tag();
      uint64_t step_probes = 0;
      for (const ExplainStep& step : explained.steps) {
        step_probes += step.trace_probes;
      }
      EXPECT_EQ(ib->timing.trace_probes, step_probes)
          << "IndexProj logical probes differ from its plan's at " << tag();
    }
  }
}

/// Workflow-output query set for a finished run: whole value plus every
/// leaf index of each output.
std::vector<std::pair<PortRef, Index>> OutputQueries(
    const engine::RunResult& run) {
  std::vector<std::pair<PortRef, Index>> queries;
  for (const auto& [port, value] : run.outputs) {
    PortRef ref{kWorkflowProcessor, port};
    queries.push_back({ref, Index()});
    for (const Index& leaf : value.LeafIndices()) {
      queries.push_back({ref, leaf});
    }
  }
  return queries;
}

TEST(BatchedModeEquivalence, Synthetic) {
  auto wb = std::move(*Workbench::Synthetic(20));
  ASSERT_TRUE(wb->RunSynthetic(8, "r0").ok());
  std::vector<std::pair<PortRef, Index>> queries = {
      {{kWorkflowProcessor, "RESULT"}, Index()},
      {{kWorkflowProcessor, "RESULT"}, Index({1, 2})},
      {{kWorkflowProcessor, "RESULT"}, Index({3})},
  };
  ExpectModesAgree(&*wb, "r0", queries,
                   {{}, {kWorkflowProcessor}, {testbed::kListGen}});
}

TEST(BatchedModeEquivalence, GK) {
  auto wb = std::move(*Workbench::GK());
  auto run = wb->Run({{"list_of_geneIDList", testbed::GkSampleInput()}}, "r0");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  InterestSet one{wb->flow()->processors().front().name};
  ExpectModesAgree(&*wb, "r0", OutputQueries(*run),
                   {{}, {kWorkflowProcessor}, one});
}

TEST(BatchedModeEquivalence, PD) {
  auto wb = std::move(*Workbench::PD(/*text_steps=*/5));
  auto run = wb->Run({{"terms", testbed::PdSampleInput()}}, "r0");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  InterestSet one{wb->flow()->processors().front().name};
  ExpectModesAgree(&*wb, "r0", OutputQueries(*run),
                   {{}, {kWorkflowProcessor}, one});
}

class ModeEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModeEquivalenceFuzz, RandomWorkflows) {
  uint64_t seed = GetParam();
  GeneratedWorkflow gen = MakeRandomWorkflow(seed);
  ASSERT_NE(gen.flow, nullptr);

  auto registry = std::make_shared<engine::ActivityRegistry>();
  engine::RegisterBuiltinActivities(registry.get());
  auto wb_result = Workbench::Create(gen.flow, registry);
  ASSERT_TRUE(wb_result.ok());
  auto wb = std::move(*wb_result);

  auto run = wb->Run(gen.inputs, "r0");
  if (!run.ok() && IsDotShapeMismatch(run.status())) {
    GTEST_SKIP() << "seed " << seed << ": ragged dot pair, skipped";
  }
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  Random rng(seed * 131 + 3);
  std::vector<std::pair<PortRef, Index>> queries;
  for (const auto& [port, value] : run->outputs) {
    PortRef ref{kWorkflowProcessor, port};
    queries.push_back({ref, Index()});
    std::vector<Index> leaves = value.LeafIndices();
    if (!leaves.empty()) {
      queries.push_back({ref, leaves[rng.Uniform(leaves.size())]});
    }
  }
  const auto& procs = gen.flow->processors();
  InterestSet one{procs[rng.Uniform(procs.size())].name};
  ExpectModesAgree(&*wb, "r0", queries, {{}, {kWorkflowProcessor}, one});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeEquivalenceFuzz,
                         ::testing::Range<uint64_t>(1, 26));

TEST(IdStringEquivalence, ProbeOverloadsReturnIdenticalRows) {
  // The string probe APIs are thin shims over the interned-id overloads;
  // both must see exactly the same rows for every probe shape.
  auto wb = std::move(*Workbench::Synthetic(5));
  ASSERT_TRUE(wb->RunSynthetic(3, "r0").ok());
  const provenance::TraceStore& store = *wb->store();

  auto run = store.LookupSymbol("r0");
  ASSERT_TRUE(run.has_value());

  auto xform_key = [](const provenance::XformRecord& r) {
    return std::make_tuple(r.run, r.event_id, r.processor, r.has_in,
                           r.in_port, r.in_index, r.in_value, r.has_out,
                           r.out_port, r.out_index, r.out_value);
  };
  auto xfer_key = [](const provenance::XferRecord& r) {
    return std::make_tuple(r.run, r.src_proc, r.src_port, r.src_index,
                           r.dst_proc, r.dst_port, r.dst_index, r.value_id);
  };

  for (const char* proc : {"CHAINA_1", "CHAINA_2", "LISTGEN_1"}) {
    auto proc_sym = store.LookupSymbol(proc);
    ASSERT_TRUE(proc_sym.has_value()) << proc;
    for (const Index& q : {Index(), Index({1}), Index({0, 2})}) {
      auto by_name = *store.FindProducing("r0", proc, "y", q);
      auto y = store.LookupSymbol("y");
      std::vector<provenance::XformRecord> by_id;
      if (y.has_value()) {
        by_id = *store.FindProducing(*run, *proc_sym, *y, q);
      }
      ASSERT_EQ(by_name.size(), by_id.size()) << proc << q.ToString();
      for (size_t i = 0; i < by_name.size(); ++i) {
        EXPECT_EQ(xform_key(by_name[i]), xform_key(by_id[i]));
      }

      auto xn = *store.FindXfersInto("r0", proc, "x", q);
      auto x = store.LookupSymbol("x");
      std::vector<provenance::XferRecord> xi;
      if (x.has_value()) xi = *store.FindXfersInto(*run, *proc_sym, *x, q);
      ASSERT_EQ(xn.size(), xi.size()) << proc << q.ToString();
      for (size_t i = 0; i < xn.size(); ++i) {
        EXPECT_EQ(xfer_key(xn[i]), xfer_key(xi[i]));
      }
    }
  }

  // Unknown names resolve to empty answers through the shim, matching
  // "no such symbol ⇒ no rows" on the id path.
  EXPECT_TRUE(store.FindProducing("r0", "NO_SUCH", "y", Index())->empty());
  EXPECT_TRUE(store.FindProducing("no-run", "CHAINA_1", "y", Index())->empty());
}

TEST(EquivalenceFocusedCost, FocusedIndexProjProbesFarLessThanNaive) {
  // On the synthetic testbed the probe asymmetry is the headline result;
  // assert it as an invariant, not just a bench observation.
  auto wb = std::move(*Workbench::Synthetic(30));
  ASSERT_TRUE(wb->RunSynthetic(10, "r0").ok());
  PortRef target{kWorkflowProcessor, "RESULT"};
  InterestSet focused{testbed::kListGen};

  auto ni = wb->Naive().Query(LineageRequest::SingleRun("r0", target, Index({1, 2}), focused));
  auto ip = wb->IndexProj()->Query(LineageRequest::SingleRun("r0", target, Index({1, 2}), focused));
  ASSERT_TRUE(ni.ok());
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  EXPECT_GE(ni->timing.trace_probes, 60u * 2u);  // grows with l
  EXPECT_LE(ip->timing.trace_probes, 4u);        // constant
}

}  // namespace
}  // namespace provlin::lineage

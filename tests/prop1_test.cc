// Validates the generalized Proposition 1 (index projection) against
// the engine's actual behaviour: for every elementary xform event of
// every random workflow, each input binding's index p_i equals exactly
// the slot the strategy layout assigns to its port within the output
// index q — i.e. p_i = q[offset_i : offset_i + len_i], with len_i =
// max(0, δs(X_i)) for iterated ports and 0 otherwise. For the flat
// cross strategy this reduces to the paper's q = p_1 · ... · p_n; for
// dot and nested expressions it is the property that lets IndexProj
// invert transformations without reading the trace.
//
// Because projection is a pure slice of q, IndexProj walks the spec
// graph once per (target, |q|) and instantiates that template per
// request; the TemplatePlan cases check every instantiated plan against
// the concrete walk of tests/reference_plan.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/builtin_activities.h"
#include "engine/executor.h"
#include "lineage/index_proj_lineage.h"
#include "testbed/workbench.h"
#include "tests/random_workflow.h"
#include "tests/reference_plan.h"
#include "workflow/depth_propagation.h"

namespace provlin::engine {
namespace {

using testbed_testing::GeneratedWorkflow;
using testbed_testing::IsDotShapeMismatch;
using testbed_testing::MakeRandomWorkflow;

/// Observer checking Prop. 1 on the fly.
class Prop1Checker : public ExecutionObserver {
 public:
  Prop1Checker(const workflow::Dataflow& flow,
               const workflow::DepthMap& depths)
      : flow_(flow), depths_(depths) {}

  void OnXform(const std::string& processor,
               const std::vector<BindingEvent>& ins,
               const std::vector<BindingEvent>& outs) override {
    ++events_;
    const workflow::Processor* proc = flow_.FindProcessor(processor);
    ASSERT_NE(proc, nullptr);
    const workflow::ProcessorDepths& pd = depths_.ForProcessor(processor);

    ASSERT_EQ(ins.size(), proc->inputs.size());
    // All output bindings of one elementary event share the index q.
    ASSERT_FALSE(outs.empty());
    const Index& q = outs.front().index;
    for (const auto& out : outs) EXPECT_EQ(out.index, q);
    EXPECT_EQ(static_cast<int>(q.length()), pd.iteration_levels);

    for (size_t i = 0; i < ins.size(); ++i) {
      workflow::PortSlot slot;
      auto it = pd.slots.find(proc->inputs[i].name);
      if (it != pd.slots.end()) slot = it->second;
      EXPECT_EQ(ins[i].index.length(), slot.length)
          << processor << " port " << i;
      EXPECT_EQ(ins[i].index, q.SubIndex(slot.offset, slot.length))
          << "generalized Prop. 1 violated at " << processor << " port "
          << proc->inputs[i].name;
    }
  }

  size_t events() const { return events_; }

 private:
  const workflow::Dataflow& flow_;
  const workflow::DepthMap& depths_;
  size_t events_ = 0;
};

class Prop1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop1Test, HoldsOnEveryRecordedEvent) {
  GeneratedWorkflow gen = MakeRandomWorkflow(GetParam(), 10);
  ASSERT_NE(gen.flow, nullptr);

  auto depths = workflow::PropagateDepths(*gen.flow);
  ASSERT_TRUE(depths.ok());

  ActivityRegistry registry;
  RegisterBuiltinActivities(&registry);
  Prop1Checker checker(*gen.flow, *depths);
  Executor executor(&registry, &checker);
  auto run = executor.Execute(*gen.flow, gen.inputs, "r0");
  if (!run.ok() && IsDotShapeMismatch(run.status())) {
    GTEST_SKIP() << "ragged dot pair";
  }
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(checker.events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop1Test,
                         ::testing::Range<uint64_t>(100, 160));

TEST(Prop1Static, DepthPropagationAgreesWithRuntimeDepths) {
  // δs(X) is statically computable (§3.1): the propagated depth of every
  // port equals the actual depth of the value observed there at runtime.
  for (uint64_t seed = 200; seed < 220; ++seed) {
    GeneratedWorkflow gen = MakeRandomWorkflow(seed, 8);
    ASSERT_NE(gen.flow, nullptr);
    auto depths = workflow::PropagateDepths(*gen.flow);
    ASSERT_TRUE(depths.ok());

    ActivityRegistry registry;
    RegisterBuiltinActivities(&registry);
    Executor executor(&registry, nullptr);
    auto run = executor.Execute(*gen.flow, gen.inputs, "r0");
    if (!run.ok() && IsDotShapeMismatch(run.status())) continue;
    ASSERT_TRUE(run.ok()) << "seed " << seed << ": "
                          << run.status().ToString();

    for (const workflow::Processor& proc : gen.flow->processors()) {
      const workflow::ProcessorDepths& pd =
          depths->ForProcessor(proc.name);
      for (size_t i = 0; i < proc.outputs.size(); ++i) {
        auto it = run->port_values.find(proc.name + ":" +
                                        proc.outputs[i].name);
        ASSERT_NE(it, run->port_values.end());
        EXPECT_EQ(it->second.depth(), pd.output_depths[i])
            << proc.name << ":" << proc.outputs[i].name << " seed "
            << seed;
      }
    }
  }
}

/// Every port of `flow`, as a lineage target.
std::vector<workflow::PortRef> AllPorts(const workflow::Dataflow& flow) {
  std::vector<workflow::PortRef> out;
  for (const workflow::Port& p : flow.inputs()) {
    out.push_back({workflow::kWorkflowProcessor, p.name});
  }
  for (const workflow::Port& p : flow.outputs()) {
    out.push_back({workflow::kWorkflowProcessor, p.name});
  }
  for (const workflow::Processor& proc : flow.processors()) {
    for (const workflow::Port& p : proc.inputs) out.push_back({proc.name, p.name});
    for (const workflow::Port& p : proc.outputs) {
      out.push_back({proc.name, p.name});
    }
  }
  return out;
}

/// Per |q|: an index with every component equal to 0, one with every
/// component equal to 1 (so distinct slices cut equal fragments), and
/// one with distinct components.
std::vector<Index> IndicesOfLength(size_t len) {
  std::vector<int32_t> distinct(len);
  for (size_t i = 0; i < len; ++i) distinct[i] = static_cast<int32_t>(i);
  return {Index(std::vector<int32_t>(len, 0)),
          Index(std::vector<int32_t>(len, 1)), Index(distinct)};
}

TEST(TemplatePlan, InstantiationMatchesConcreteWalk) {
  // Random workflows cover diamonds, cross and dot (also nested) and
  // zero and negative mismatches. For every port as target, every |q|
  // up to two past the longest slot end, and a spread of 𝒫, the plan
  // instantiated from the cached template lists exactly the queries of
  // the concrete walk, in its order.
  size_t plans = 0;
  size_t reentered = 0;  // templates that re-walk an already-seen subtree
  for (uint64_t seed = 300; seed < 324; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratedWorkflow gen = MakeRandomWorkflow(seed, 10);
    ASSERT_NE(gen.flow, nullptr);
    auto registry = std::make_shared<ActivityRegistry>();
    RegisterBuiltinActivities(registry.get());
    auto wb = testbed::Workbench::Create(gen.flow, registry);
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    const workflow::Dataflow& flow = *(*wb)->flow();
    const provenance::TraceStore& store = *(*wb)->store();
    lineage::IndexProjLineage* engine = (*wb)->IndexProj();

    size_t cap = 0;
    for (const workflow::Processor& proc : flow.processors()) {
      for (const auto& [port, slot] :
           engine->depths().ForProcessor(proc.name).slots) {
        cap = std::max(cap, slot.offset + slot.length);
      }
    }

    Random rng(seed);
    std::vector<lineage::InterestSet> interests = {
        {}, {workflow::kWorkflowProcessor}, {"no_such_processor"}};
    lineage::InterestSet half;
    for (const workflow::Processor& proc : flow.processors()) {
      interests.push_back({proc.name});
      if (rng.Bernoulli(0.5)) half.insert(proc.name);
    }
    interests.push_back(half);

    for (const workflow::PortRef& target : AllPorts(flow)) {
      for (size_t len = 0; len <= cap + 2; ++len) {
        const std::vector<Index> indices = IndicesOfLength(len);
        for (size_t k = 0; k < indices.size(); ++k) {
          const Index& q = indices[k];
          const bool distinct_components = k == 2 || len <= 1;
          for (const lineage::InterestSet& interest : interests) {
            auto got = engine->Plan(target, q, interest);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            auto want = oracle::ReferencePlan(flow, engine->depths(), store,
                                              target, q, interest);
            ASSERT_TRUE(want.ok()) << want.status().ToString();
            const std::string where =
                target.ToString() + q.ToString() + " |P|=" +
                std::to_string(interest.size());
            const auto& a = (*got)->queries;
            const auto& b = want->queries;
            ASSERT_EQ(a.size(), b.size()) << where;
            for (size_t i = 0; i < a.size(); ++i) {
              ASSERT_EQ(a[i].processor, b[i].processor) << where << " #" << i;
              ASSERT_EQ(a[i].port, b[i].port) << where << " #" << i;
              ASSERT_EQ(a[i].index, b[i].index) << where << " #" << i;
              ASSERT_EQ(a[i].workflow_source, b[i].workflow_source)
                  << where << " #" << i;
              ASSERT_EQ(a[i].via_processor, b[i].via_processor)
                  << where << " #" << i;
              ASSERT_EQ(a[i].via_port, b[i].via_port) << where << " #" << i;
            }
            // Only equal components can make the template walk more.
            if (distinct_components) {
              ASSERT_EQ((*got)->graph_steps, want->graph_steps) << where;
            } else {
              ASSERT_GE((*got)->graph_steps, want->graph_steps) << where;
              if ((*got)->graph_steps > want->graph_steps) ++reentered;
            }
            ++plans;
          }
        }
      }
    }
    // One template per (target, capped |q|), whatever q and 𝒫 were. A
    // processor may name an input and an output alike ("items"); the
    // name then targets the output, so count names, not ports.
    const std::vector<workflow::PortRef> ports = AllPorts(flow);
    const std::set<workflow::PortRef> names(ports.begin(), ports.end());
    EXPECT_EQ(engine->plan_cache_size(), names.size() * (cap + 1));
  }
  EXPECT_GT(plans, 10000u);
  EXPECT_GT(reentered, 0u);  // the dedup at instantiation was exercised
}

}  // namespace
}  // namespace provlin::engine

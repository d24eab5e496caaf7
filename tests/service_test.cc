// The concurrent batch lineage service: batch answers must be exactly
// the sequential answers, the shared plan cache must build each distinct
// template once even under contention, and cache maintenance must be safe
// while queries are in flight.

#include "lineage/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "testbed/gk_workflow.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"
#include "tests/reference_ni.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth_ = std::move(*Workbench::Synthetic(6));
    for (int d = 3; d <= 6; ++d) {
      std::string run = "run-d" + std::to_string(d);
      ASSERT_TRUE(synth_->RunSynthetic(d, run).ok());
      synth_runs_.push_back(run);
    }
    gk_ = std::move(*Workbench::GK());
    ASSERT_TRUE(
        gk_->Run({{"list_of_geneIDList", testbed::GkSampleInput()}}, "gk-run")
            .ok());
  }

  /// 64 requests mixing both engines, both workbenches, several targets
  /// and indices, with heavy key repetition (the plan-cache contention
  /// shape): 8 distinct (engine, plan) groups x 8 repetitions.
  std::vector<ServiceRequest> MixedBatch() {
    PortRef result{kWorkflowProcessor, "RESULT"};
    PortRef per_gene{kWorkflowProcessor, "paths_per_gene"};
    PortRef common{kWorkflowProcessor, "commonPathways"};
    std::vector<ServiceRequest> batch;
    for (int rep = 0; rep < 8; ++rep) {
      // Synthetic, both engines, focused and unfocused.
      batch.push_back({synth_->Engine("indexproj"),
                       LineageRequest::SingleRun(synth_runs_[0], result,
                                                 Index({1, 2}),
                                                 {testbed::kListGen})});
      batch.push_back({synth_->Engine("naive"),
                       LineageRequest::SingleRun(synth_runs_[1], result,
                                                 Index({1, 2}),
                                                 {testbed::kListGen})});
      batch.push_back({synth_->Engine("indexproj"),
                       LineageRequest::SingleRun(synth_runs_[2], result,
                                                 Index({0, 1}), {})});
      // Multi-run request: the whole sweep in one scope.
      LineageRequest sweep;
      sweep.runs = synth_runs_;
      sweep.target = result;
      sweep.index = Index({1, 2});
      sweep.interest = {testbed::kListGen};
      batch.push_back({synth_->Engine("indexproj"), sweep});
      // GK, both engines, two targets.
      batch.push_back({gk_->Engine("indexproj"),
                       LineageRequest::SingleRun(
                           "gk-run", per_gene, Index({0}),
                           {"get_pathways_by_genes"})});
      batch.push_back({gk_->Engine("naive"),
                       LineageRequest::SingleRun(
                           "gk-run", per_gene, Index({0}),
                           {"get_pathways_by_genes"})});
      batch.push_back({gk_->Engine("indexproj"),
                       LineageRequest::SingleRun("gk-run", common, Index({0}),
                                                 {kWorkflowProcessor})});
      batch.push_back({gk_->Engine("naive"),
                       LineageRequest::SingleRun("gk-run", common, Index({0}),
                                                 {})});
    }
    return batch;
  }

  std::unique_ptr<Workbench> synth_;
  std::unique_ptr<Workbench> gk_;
  std::vector<std::string> synth_runs_;
};

TEST_F(ServiceTest, MixedBatchMatchesSequentialExecution) {
  std::vector<ServiceRequest> batch = MixedBatch();
  ASSERT_EQ(batch.size(), 64u);

  // Sequential ground truth through the same interface.
  std::vector<LineageAnswer> expected;
  for (const ServiceRequest& req : batch) {
    auto answer = req.engine->Query(req.request);
    ASSERT_TRUE(answer.ok()) << req.request.ToString();
    expected.push_back(std::move(*answer));
  }

  for (bool group : {true, false}) {
    LineageService service({/*num_threads=*/4, /*group_same_plan=*/group});
    std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << "group=" << group << " i=" << i << ": "
          << responses[i].status.ToString();
      EXPECT_EQ(responses[i].answer.bindings, expected[i].bindings)
          << "group=" << group << " divergence at request " << i << " ("
          << batch[i].request.ToString() << ")";
      EXPECT_LT(responses[i].worker, service.num_threads());
      EXPECT_GE(responses[i].queue_wait_ms, 0.0);
    }

    ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.batches, 1u);
    EXPECT_EQ(m.requests, batch.size());
    EXPECT_EQ(m.failed_requests, 0u);
    EXPECT_GT(m.last_batch_wall_ms, 0.0);
    // Per-thread probe counts must account for every trace probe the
    // batch issued.
    uint64_t per_thread_sum = 0;
    for (uint64_t p : m.per_thread_probes) per_thread_sum += p;
    EXPECT_EQ(per_thread_sum, m.trace_probes);
    EXPECT_GT(m.trace_probes, 0u);
  }
}

TEST_F(ServiceTest, ExactlyOneBuildPerDistinctKeyUnderContention) {
  IndexProjLineage* engine = synth_->IndexProj();
  engine->ClearPlanCache();
  ASSERT_EQ(engine->plan_cache_size(), 0u);
  uint64_t builds_before = engine->plans_built();
  uint64_t hits_before = engine->plan_cache_hits();

  // 64 requests over exactly 2 distinct template keys — workflow:RESULT
  // at |q| = 2 and at |q| = 0 — with the index, 𝒫 and run varying
  // across requests, dispatched one task per request (no grouping) on 8
  // workers: maximal cache contention.
  PortRef result{kWorkflowProcessor, "RESULT"};
  const std::vector<InterestSet> interests = {
      {testbed::kListGen},
      {},
      {kWorkflowProcessor},
      {testbed::kListGen, kWorkflowProcessor}};
  constexpr size_t kTemplates = 2;
  std::vector<ServiceRequest> batch;
  for (int rep = 0; rep < 32; ++rep) {
    const std::string& run =
        synth_runs_[static_cast<size_t>(rep) % synth_runs_.size()];
    const InterestSet& interest =
        interests[static_cast<size_t>(rep) % interests.size()];
    batch.push_back({engine, LineageRequest::SingleRun(
                                 run, result, Index({rep % 3, rep / 11}),
                                 interest)});
    batch.push_back(
        {engine, LineageRequest::SingleRun(run, result, Index(), interest)});
  }
  ASSERT_EQ(batch.size(), 64u);

  LineageService service({/*num_threads=*/8, /*group_same_plan=*/false});
  std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  for (const ServiceResponse& resp : responses) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  // The acceptance criterion: one build per distinct key, every other
  // request a cache hit, nothing lost and nothing built twice.
  EXPECT_EQ(engine->plans_built() - builds_before, kTemplates);
  EXPECT_EQ(engine->plan_cache_hits() - hits_before,
            batch.size() - kTemplates);
  EXPECT_EQ(engine->plan_cache_size(), kTemplates);
}

TEST_F(ServiceTest, PlanCacheMaintenanceSafeUnderConcurrentQueries) {
  IndexProjLineage* engine = synth_->IndexProj();
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> querents;
  querents.reserve(4);
  for (int t = 0; t < 4; ++t) {
    querents.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        Index q = (i + t) % 2 == 0 ? Index({1, 2}) : Index({0, 1});
        auto answer = engine->Query(LineageRequest::SingleRun(
            synth_runs_[0], result, q, {testbed::kListGen}));
        if (!answer.ok() || answer->bindings.empty()) failures.fetch_add(1);
      }
    });
  }
  // Concurrent maintenance: clear and inspect the cache while queries
  // race through it.
  std::thread maintainer([&] {
    while (!stop.load()) {
      engine->ClearPlanCache();
      (void)engine->plan_cache_size();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : querents) t.join();
  stop.store(true);
  maintainer.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServiceTest, BadRequestFailsAloneWithoutPoisoningBatch) {
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<ServiceRequest> batch;
  batch.push_back({synth_->Engine("indexproj"),
                   LineageRequest::SingleRun(synth_runs_[0], result,
                                             Index({1, 2}),
                                             {testbed::kListGen})});
  batch.push_back({nullptr,  // no engine: must fail in isolation
                   LineageRequest::SingleRun(synth_runs_[0], result, Index(),
                                             {})});
  batch.push_back({synth_->Engine("naive"),
                   LineageRequest::SingleRun(synth_runs_[1], result,
                                             Index({1, 2}),
                                             {testbed::kListGen})});

  LineageService service({/*num_threads=*/2, /*group_same_plan=*/true});
  std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[0].answer.bindings.empty());
  EXPECT_FALSE(responses[2].answer.bindings.empty());

  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.requests, 3u);
  EXPECT_EQ(m.failed_requests, 1u);
}

TEST_F(ServiceTest, MetricsAccumulateAcrossBatchesAndReset) {
  LineageService service({/*num_threads=*/2, /*group_same_plan=*/true});
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<ServiceRequest> batch = {
      {synth_->Engine("indexproj"),
       LineageRequest::SingleRun(synth_runs_[0], result, Index({1, 2}),
                                 {testbed::kListGen})}};
  service.ExecuteBatch(batch);
  service.ExecuteBatch(batch);
  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.requests, 2u);
  // The second batch reuses the first one's cached plan.
  EXPECT_GE(m.plan_cache_hits, 1u);
  EXPECT_GT(m.plan_cache_hit_rate(), 0.0);
  EXPECT_FALSE(m.ToString().empty());

  service.ResetMetrics();
  m = service.metrics();
  EXPECT_EQ(m.batches, 0u);
  EXPECT_EQ(m.requests, 0u);
  EXPECT_EQ(m.per_thread_probes.size(), service.num_threads());
}

TEST_F(ServiceTest, RegistrySnapshotMatchesInstanceMetrics) {
  // Each quantity has one registry name, published by the tier that
  // measures it: the service counts batches and requests, the engines
  // count queries, probes, descents and plan-cache hits, and the trace
  // store counts probe-memo traffic. With exactly one service in the
  // process (each TEST runs in its own process under
  // gtest_discover_tests) the registry deltas equal the instance view.
  namespace metrics = common::metrics;
  const metrics::MetricsSnapshot before =
      metrics::MetricsRegistry::Global().Snapshot();
  LineageService service({/*num_threads=*/3, /*group_same_plan=*/true});
  std::vector<ServiceRequest> batch = MixedBatch();
  service.ExecuteBatch(batch);
  service.ExecuteBatch(batch);
  const metrics::MetricsSnapshot after =
      metrics::MetricsRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };

  ServiceMetrics inst = service.metrics();
  EXPECT_EQ(delta("service/batches"), inst.batches);
  EXPECT_EQ(delta("service/requests"), inst.requests);
  EXPECT_EQ(delta("service/failed_requests"), inst.failed_requests);
  EXPECT_EQ(delta("lineage/queries"),
            inst.requests - inst.failed_requests);
  EXPECT_EQ(delta("lineage/trace_probes"), inst.trace_probes);
  EXPECT_EQ(delta("lineage/trace_descents"), inst.trace_descents);
  EXPECT_EQ(delta("lineage/plan_cache_hits"), inst.plan_cache_hits);
  EXPECT_EQ(delta("provenance/memo_hits"), inst.probe_memo_hits);
  EXPECT_EQ(delta("provenance/memo_lookups"), inst.probe_memo_lookups);
  // The queue-wait total is a histogram sum of the same observations;
  // addition order differs, so allow for rounding.
  EXPECT_NEAR(after.histogram_sum("service/queue_wait_ms") -
                  before.histogram_sum("service/queue_wait_ms"),
              inst.total_queue_wait_ms, 1e-6);
  // No second name restates an engine or store count: the service owns
  // exactly these instruments.
  std::set<std::string> service_names;
  auto collect = [&](const auto& instruments) {
    for (const auto& entry : instruments) {
      if (entry.first.rfind("service/", 0) == 0) {
        service_names.insert(entry.first);
      }
    }
  };
  collect(after.counters);
  collect(after.gauges);
  collect(after.histograms);
  EXPECT_EQ(service_names,
            (std::set<std::string>{"service/batch_wall_ms", "service/batches",
                                   "service/failed_requests",
                                   "service/queue_wait_ms",
                                   "service/requests"}));
  EXPECT_GT(inst.requests, 0u);
  EXPECT_GT(inst.trace_probes, 0u);
  EXPECT_GT(inst.probe_memo_lookups, 0u);
}

// Probe memo keys and NI's visited set key on the index path itself, so
// requests at indices the store has never seen leave its saved index
// dictionary as it was: in a memoized service batch, through single
// probes with and without a memo, and through NI's traversal.
TEST_F(ServiceTest, FreshRequestIndicesDoNotGrowTheIndexDictionary) {
  const PortRef result{kWorkflowProcessor, "RESULT"};
  auto batch_at = [&](int base) {
    std::vector<ServiceRequest> batch;
    for (int i = 0; i < 125; ++i) {
      const std::string& run = synth_runs_[static_cast<size_t>(i) % 4];
      for (const char* engine : {"indexproj", "naive"}) {
        batch.push_back({synth_->Engine(engine),
                         LineageRequest::SingleRun(run, result,
                                                   Index({base + i, 7}), {})});
        batch.push_back(
            {synth_->Engine(engine),
             LineageRequest::SingleRun(run, result, Index({1, base + i}),
                                       {testbed::kListGen})});
      }
    }
    return batch;
  };
  // The default options memoize probes (dedupe_probes).
  LineageService service({/*num_threads=*/4, /*group_same_plan=*/true});
  // A first batch interns whatever stored indices the engines' answer
  // assembly keys on; the second asks only at indices never seen.
  for (const ServiceResponse& r : service.ExecuteBatch(batch_at(1000))) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  const common::IndexDictionary& dict = synth_->db()->index_dict();
  const size_t before = dict.size();
  const std::vector<ServiceRequest> batch = batch_at(5000);
  const std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  EXPECT_GT(service.metrics().probe_memo_lookups, 0u);
  EXPECT_EQ(dict.size(), before);

  const provenance::TraceStore* store = synth_->store();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->FindProducing(synth_runs_[0], testbed::kListGen,
                                     "list", Index({9000 + i}))
                    .ok());
    provenance::ProbeMemo memo;
    provenance::ProbeMemoScope scope(&memo);
    ASSERT_TRUE(store->FindProducing(synth_runs_[0], testbed::kListGen,
                                     "list", Index({9100 + i}))
                    .ok());
  }
  EXPECT_EQ(dict.size(), before);

  // The answers stand: NI's agree with the depth-first reference (which
  // interns), IndexProj's with its own sequential, memo-free execution.
  oracle::ReferenceNaiveLineage reference(store);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    const LineageEngine* oracle = batch[i].engine->name() == "naive"
                                      ? &reference
                                      : batch[i].engine;
    auto want = oracle->Query(batch[i].request);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(responses[i].answer.bindings, want->bindings)
        << batch[i].request.ToString();
  }
}

TEST_F(ServiceTest, EngineInterfaceReportsNames) {
  EXPECT_EQ(synth_->Engine("naive")->name(), "naive");
  EXPECT_EQ(synth_->Engine("indexproj")->name(), "indexproj");
  EXPECT_EQ(synth_->Engine("nonsense"), nullptr);
}

}  // namespace
}  // namespace provlin::lineage

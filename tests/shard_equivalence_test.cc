// Run sharding is purely physical (DESIGN.md §11): a TraceStore opened
// with N > 1 shards must answer every lineage query with bindings
// identical to the unsharded store — for both engines and the
// depth-first reference NI, single- and multi-run requests — and
// EXPLAIN must report the same logical row counts per step. The suite
// sweeps the paper workloads (GK, PD, synthetic) plus random workflows
// over N ∈ {1, 2, 4, 7}, and TSan-stresses concurrent
// ingest-while-querying on a sharded store with async writer threads.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/builtin_activities.h"
#include "lineage/engine.h"
#include "provenance/schema.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "provenance/trace_store.h"
#include "tests/random_workflow.h"
#include "tests/reference_ni.h"
#include "testbed/gk_workflow.h"
#include "testbed/pd_workflow.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::lineage {
namespace {

using provenance::TraceStoreOptions;
using testbed::Workbench;
using testbed_testing::GeneratedWorkflow;
using testbed_testing::IsDotShapeMismatch;
using testbed_testing::MakeRandomWorkflow;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

/// A workbench with its runs executed, ready to be queried. The factory
/// is invoked once per shard count so every store captures the same
/// trace through an identical execution.
struct Populated {
  std::unique_ptr<Workbench> wb;
  std::vector<std::string> runs;
  std::vector<std::pair<PortRef, Index>> queries;
  std::vector<InterestSet> interests;
};

using Factory = std::function<Populated(const TraceStoreOptions&)>;

const size_t kShardCounts[] = {2, 4, 7};

/// Asserts that `make` produces identical answers at 1 shard and at
/// every count in kShardCounts: bindings and logical probe counts from
/// both engines and the reference NI, multi-run answers, EXPLAIN row
/// counts, and the record totals themselves.
void ExpectShardingIsPurelyPhysical(const Factory& make) {
  TraceStoreOptions base_options;
  base_options.shards = 1;  // pin: immune to PROVLIN_TEST_SHARDS
  Populated base = make(base_options);
  ASSERT_NE(base.wb, nullptr);
  ASSERT_EQ(base.wb->store()->shard_count(), 1u);

  auto base_counts = base.wb->store()->CountAllRecords();
  ASSERT_TRUE(base_counts.ok());
  auto base_runs = base.wb->store()->ListRuns();
  ASSERT_TRUE(base_runs.ok());

  auto base_ip = IndexProjLineage::Create(base.wb->flow(), base.wb->store());
  ASSERT_TRUE(base_ip.ok());

  for (size_t nshards : kShardCounts) {
    TraceStoreOptions options;
    options.shards = nshards;
    Populated sharded = make(options);
    ASSERT_NE(sharded.wb, nullptr);
    provenance::TraceStore* store = sharded.wb->store();
    ASSERT_EQ(store->shard_count(), nshards);

    // Same runs (global sequence order), same record totals.
    auto runs = store->ListRuns();
    ASSERT_TRUE(runs.ok());
    EXPECT_EQ(*runs, *base_runs) << nshards << " shards";
    auto counts = store->CountAllRecords();
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(counts->xform_rows, base_counts->xform_rows);
    EXPECT_EQ(counts->xfer_rows, base_counts->xfer_rows);
    EXPECT_EQ(counts->value_rows, base_counts->value_rows);

    // Shard routing is a pure function of the run id: both stores at
    // this count agree, and hashes stay within range.
    for (const std::string& run : base.runs) {
      EXPECT_LT(store->ShardOfRun(run), nshards);
      EXPECT_EQ(store->ShardOfRun(run),
                provenance::RunShardHash(run) % nshards);
    }

    // The property is per engine: the SAME engine on the sharded store
    // answers exactly as on the unsharded store, and NI on the sharded
    // store exactly as the depth-first reference on the unsharded one.
    // (NI-vs-IndexProj equivalence is the main suite's concern.)
    oracle::ReferenceNaiveLineage reference(base.wb->store());
    NaiveLineage ni(base.wb->store());
    NaiveLineage sh_ni(store);
    auto sh_ip = IndexProjLineage::Create(sharded.wb->flow(), store);
    ASSERT_TRUE(sh_ip.ok());
    const std::pair<const LineageEngine*, const LineageEngine*> pairs[] = {
        {&reference, &sh_ni},
        {&ni, &sh_ni},
        {&*base_ip, &*sh_ip},
    };

    for (const auto& [port, q] : base.queries) {
      for (const InterestSet& interest : base.interests) {
        auto tag = [&, port = port, q = q] {
          return port.ToString() + q.ToString() + " |P|=" +
                 std::to_string(interest.size()) + " shards=" +
                 std::to_string(nshards);
        };
        for (const std::string& run : base.runs) {
          LineageRequest req =
              LineageRequest::SingleRun(run, port, q, interest);
          for (const auto& [unsharded, shardeng] : pairs) {
            auto want = unsharded->Query(req);
            ASSERT_TRUE(want.ok())
                << tag() << ": " << want.status().ToString();
            auto got = shardeng->Query(req);
            ASSERT_TRUE(got.ok())
                << shardeng->name() << " " << tag() << ": "
                << got.status().ToString();
            ASSERT_EQ(got->bindings, want->bindings)
                << shardeng->name() << " diverges at " << tag() << " run "
                << run;
            // Sharding must not change the logical probe count either —
            // only where the probes land.
            EXPECT_EQ(got->timing.trace_probes, want->timing.trace_probes)
                << shardeng->name() << " probes changed at " << tag();
          }

          // EXPLAIN against the sharded store mirrors the unsharded
          // plan: same steps, same logical row and binding counts.
          ExplainResult base_ex;
          ExplainResult sh_ex;
          auto base_answer = base_ip->Explain(req, &base_ex);
          auto sh_answer = sh_ip->Explain(req, &sh_ex);
          ASSERT_TRUE(base_answer.ok()) << tag();
          ASSERT_TRUE(sh_answer.ok()) << tag();
          EXPECT_EQ(sh_answer->bindings, base_answer->bindings);
          EXPECT_EQ(sh_ex.plan.trace_probes, base_ex.plan.trace_probes)
              << tag();
          ASSERT_EQ(sh_ex.steps.size(), base_ex.steps.size()) << tag();
          for (size_t s = 0; s < base_ex.steps.size(); ++s) {
            EXPECT_EQ(sh_ex.steps[s].rows, base_ex.steps[s].rows)
                << tag() << " step " << s;
            EXPECT_EQ(sh_ex.steps[s].bindings, base_ex.steps[s].bindings)
                << tag() << " step " << s;
            EXPECT_EQ(sh_ex.steps[s].trace_probes,
                      base_ex.steps[s].trace_probes)
                << tag() << " step " << s;
          }
        }

        // Multi-run requests cross shard boundaries inside one batch —
        // the fan-out/merge path must keep the per-run answers intact.
        if (base.runs.size() > 1) {
          LineageRequest multi;
          multi.runs = base.runs;
          multi.target = port;
          multi.index = q;
          multi.interest = interest;
          for (const auto& [unsharded, shardeng] : pairs) {
            auto want = unsharded->Query(multi);
            ASSERT_TRUE(want.ok()) << tag();
            auto got = shardeng->Query(multi);
            ASSERT_TRUE(got.ok()) << tag();
            EXPECT_EQ(got->bindings, want->bindings)
                << "multi-run " << shardeng->name() << " diverges at "
                << tag();
          }
        }
      }
    }
  }
}

/// Synthetic chains: five runs with distinct list sizes, so runs land
/// on distinct shards with distinct row volumes.
Populated MakeSynthetic(const TraceStoreOptions& options) {
  Populated p;
  auto wb = Workbench::Synthetic(8, options);
  EXPECT_TRUE(wb.ok());
  p.wb = std::move(*wb);
  for (int r = 0; r < 5; ++r) {
    std::string run = "r" + std::to_string(r);
    EXPECT_TRUE(p.wb->RunSynthetic(2 + r, run).ok()) << run;
    p.runs.push_back(run);
  }
  p.queries = {{{kWorkflowProcessor, "RESULT"}, Index()},
               {{kWorkflowProcessor, "RESULT"}, Index({1})},
               {{kWorkflowProcessor, "RESULT"}, Index({1, 2})}};
  p.interests = {{}, {kWorkflowProcessor}, {testbed::kListGen}};
  return p;
}

TEST(ShardEquivalence, Synthetic) {
  ExpectShardingIsPurelyPhysical(MakeSynthetic);
}

TEST(ShardEquivalence, GK) {
  ExpectShardingIsPurelyPhysical([](const TraceStoreOptions& options) {
    Populated p;
    auto wb = Workbench::GK(42, options);
    EXPECT_TRUE(wb.ok());
    p.wb = std::move(*wb);
    for (int r = 0; r < 3; ++r) {
      std::string run = "gk" + std::to_string(r);
      auto result = p.wb->Run(
          {{"list_of_geneIDList", testbed::GkSampleInput()}}, run);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (r == 0) {
        for (const auto& [port, value] : result->outputs) {
          PortRef ref{kWorkflowProcessor, port};
          p.queries.push_back({ref, Index()});
          std::vector<Index> leaves = value.LeafIndices();
          if (!leaves.empty()) p.queries.push_back({ref, leaves.front()});
        }
      }
      p.runs.push_back(run);
    }
    p.interests = {{},
                   {kWorkflowProcessor},
                   {p.wb->flow()->processors().front().name}};
    return p;
  });
}

TEST(ShardEquivalence, PD) {
  ExpectShardingIsPurelyPhysical([](const TraceStoreOptions& options) {
    Populated p;
    auto wb = Workbench::PD(/*text_steps=*/5, /*seed=*/7, options);
    EXPECT_TRUE(wb.ok());
    p.wb = std::move(*wb);
    for (int r = 0; r < 3; ++r) {
      std::string run = "pd" + std::to_string(r);
      auto result = p.wb->Run({{"terms", testbed::PdSampleInput()}}, run);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (r == 0) {
        for (const auto& [port, value] : result->outputs) {
          PortRef ref{kWorkflowProcessor, port};
          p.queries.push_back({ref, Index()});
          std::vector<Index> leaves = value.LeafIndices();
          if (!leaves.empty()) p.queries.push_back({ref, leaves.back()});
        }
      }
      p.runs.push_back(run);
    }
    p.interests = {{}, {kWorkflowProcessor}};
    return p;
  });
}

class ShardEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardEquivalenceFuzz, RandomWorkflows) {
  uint64_t seed = GetParam();
  GeneratedWorkflow gen = MakeRandomWorkflow(seed);
  ASSERT_NE(gen.flow, nullptr);

  // Probe-run the workflow once to find out whether this seed executes
  // (ragged dot pairs abort) before sweeping shard counts.
  {
    auto registry = std::make_shared<engine::ActivityRegistry>();
    engine::RegisterBuiltinActivities(registry.get());
    auto wb = std::move(*Workbench::Create(gen.flow, registry));
    auto run = wb->Run(gen.inputs, "probe");
    if (!run.ok() && IsDotShapeMismatch(run.status())) {
      GTEST_SKIP() << "seed " << seed << ": ragged dot pair, skipped";
    }
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }

  Random rng(seed * 977 + 11);
  ExpectShardingIsPurelyPhysical([&](const TraceStoreOptions& options) {
    Populated p;
    auto registry = std::make_shared<engine::ActivityRegistry>();
    engine::RegisterBuiltinActivities(registry.get());
    auto wb = Workbench::Create(gen.flow, registry, options);
    EXPECT_TRUE(wb.ok());
    p.wb = std::move(*wb);
    for (int r = 0; r < 4; ++r) {
      std::string run = "rw" + std::to_string(r);
      auto result = p.wb->Run(gen.inputs, run);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (r == 0 && p.queries.empty()) {
        for (const auto& [port, value] : result->outputs) {
          PortRef ref{kWorkflowProcessor, port};
          p.queries.push_back({ref, Index()});
          std::vector<Index> leaves = value.LeafIndices();
          if (!leaves.empty()) {
            p.queries.push_back({ref, leaves[rng.Uniform(leaves.size())]});
          }
        }
      }
      p.runs.push_back(run);
    }
    const auto& procs = gen.flow->processors();
    p.interests = {{}, {procs[rng.Uniform(procs.size())].name}};
    return p;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceFuzz,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Routing sanity: the hash actually spreads runs, and DeleteRun under
// sharding removes exactly the owning shard's rows.
// ---------------------------------------------------------------------------

TEST(ShardRouting, ManyRunsSpreadAcrossShards) {
  TraceStoreOptions options;
  options.shards = 7;
  auto wb = std::move(*Workbench::Synthetic(3, options));
  std::set<size_t> used;
  for (int r = 0; r < 20; ++r) {
    std::string run = "spread" + std::to_string(r);
    ASSERT_TRUE(wb->RunSynthetic(2, run).ok());
    used.insert(wb->store()->ShardOfRun(run));
  }
  // FNV-1a over 20 distinct ids into 7 buckets: a routing bug that pins
  // everything to one shard is what this guards against.
  EXPECT_GE(used.size(), 3u);
  EXPECT_EQ(wb->store()->ListRuns()->size(), 20u);
}

TEST(ShardRouting, DeleteRunTouchesOnlyOwningShard) {
  TraceStoreOptions options;
  options.shards = 4;
  auto wb = std::move(*Workbench::Synthetic(4, options));
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(wb->RunSynthetic(3, "d" + std::to_string(r)).ok());
  }
  auto before = *wb->store()->CountAllRecords();
  auto victim = *wb->store()->CountRecords("d2");
  auto removed = wb->store()->DeleteRun("d2");
  ASSERT_TRUE(removed.ok());
  EXPECT_GT(*removed, 0u);
  auto after = *wb->store()->CountAllRecords();
  EXPECT_EQ(after.xform_rows, before.xform_rows - victim.xform_rows);
  EXPECT_EQ(after.xfer_rows, before.xfer_rows - victim.xfer_rows);
  EXPECT_EQ(after.value_rows, before.value_rows - victim.value_rows);
  // The survivors answer exactly as before.
  for (const char* run : {"d0", "d1", "d3", "d4", "d5"}) {
    auto answer = wb->Naive().Query(LineageRequest::SingleRun(run, {kWorkflowProcessor, "RESULT"}, Index({1}), {testbed::kListGen}));
    ASSERT_TRUE(answer.ok()) << run;
    EXPECT_EQ(answer->bindings.size(), 1u) << run;
  }
  EXPECT_FALSE(wb->store()->DeleteRun("d2").ok());  // NotFound now
}

// ---------------------------------------------------------------------------
// Concurrent ingest while querying: writer threads capture fresh runs
// through async per-shard ingest queues while reader threads replay a
// fixed query against an already-complete run. Run under TSan this
// exercises every lock in the sharded store; functionally the readers
// must never see the complete run's answer change.
// ---------------------------------------------------------------------------

TEST(ShardConcurrency, IngestWhileQueryingKeepsAnswersStable) {
  TraceStoreOptions options;
  options.shards = 4;
  options.async_ingest = true;
  auto wb = std::move(*Workbench::Synthetic(6, options));
  ASSERT_TRUE(wb->RunSynthetic(4, "stable").ok());

  LineageRequest req = LineageRequest::SingleRun(
      "stable", {kWorkflowProcessor, "RESULT"}, Index({1, 2}),
      {testbed::kListGen});
  NaiveLineage naive(wb->store());
  auto expected = naive.Query(req);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->bindings.empty());

  constexpr int kWriters = 2;
  constexpr int kRunsPerWriter = 6;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRunsPerWriter; ++r) {
        std::string run = "w" + std::to_string(w) + "_" + std::to_string(r);
        if (!wb->RunSynthetic(3, run).ok()) {
          reader_errors.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto got = naive.Query(req);
        if (!got.ok()) {
          reader_errors.fetch_add(1);
        } else if (got->bindings != expected->bindings) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  ASSERT_TRUE(wb->store()->Flush().ok());

  // Everything the writers captured is present and queryable.
  EXPECT_EQ(wb->store()->ListRuns()->size(),
            1u + kWriters * kRunsPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (int r = 0; r < kRunsPerWriter; ++r) {
      std::string run = "w" + std::to_string(w) + "_" + std::to_string(r);
      auto answer = naive.Query(LineageRequest::SingleRun(run, {kWorkflowProcessor, "RESULT"}, Index({1}),
          {testbed::kListGen}));
      ASSERT_TRUE(answer.ok()) << run;
      EXPECT_EQ(answer->bindings.size(), 1u) << run;
    }
  }
}

}  // namespace
}  // namespace provlin::lineage

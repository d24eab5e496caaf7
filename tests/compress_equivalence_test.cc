// Sealing runs into compressed immutable segments is purely physical
// (DESIGN.md §13): a store that answers probes from sealed segments —
// whether sealed by policy (--compress seal/always) or explicitly
// (SealRun / SealAllRuns) — must return bindings identical to the
// all-hot B+tree store, with the same logical probe counts and the
// same EXPLAIN row counts per step, for both backward engines, the
// depth-first reference NI and both forward engines. The suite sweeps
// the paper workloads (GK, PD, synthetic) plus random workflows over
// shards ∈ {1, 4} and the three sealing shapes (policy-mixed
// hot/sealed, everything sealed, explicitly sealed), and checks
// DeleteRun and image persistence against sealed runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/builtin_activities.h"
#include "lineage/engine.h"
#include "lineage/forward_lineage.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "provenance/schema.h"
#include "provenance/trace_store.h"
#include "testbed/gk_workflow.h"
#include "testbed/pd_workflow.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"
#include "tests/random_workflow.h"
#include "tests/reference_ni.h"

namespace provlin::lineage {
namespace {

using provenance::CompressMode;
using provenance::TraceStoreOptions;
using testbed::Workbench;
using testbed_testing::GeneratedWorkflow;
using testbed_testing::IsDotShapeMismatch;
using testbed_testing::MakeRandomWorkflow;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

/// A workbench with its runs executed, ready to be queried. The factory
/// is invoked once per store variant so every store captures the same
/// trace through an identical execution.
struct Populated {
  std::unique_ptr<Workbench> wb;
  std::vector<std::string> runs;
  std::vector<std::pair<PortRef, Index>> queries;
  std::vector<InterestSet> interests;
};

using Factory = std::function<Populated(const TraceStoreOptions&)>;

/// One sealed-store shape under test.
struct Variant {
  const char* name;
  CompressMode mode;
  size_t shards;
  /// Seal the remaining hot tier after capture (Flush for kAlways,
  /// SealAllRuns for the explicit-API shape).
  bool seal_rest;
};

const Variant kVariants[] = {
    // Policy sealing at InsertRun: all-but-latest per shard sealed, the
    // latest stays hot — the mixed-tier shape queries must merge across.
    {"seal/1", CompressMode::kSeal, 1, false},
    {"seal/4", CompressMode::kSeal, 4, false},
    // Everything sealed: Flush under kAlways parks the latest run too.
    {"always/1", CompressMode::kAlways, 1, true},
    {"always/4", CompressMode::kAlways, 4, true},
    // Explicit API on an uncompressed store: SealAllRuns after capture.
    {"explicit/1", CompressMode::kOff, 1, true},
};

/// The all-hot reference store every variant is compared against.
Populated MakeAllHot(const Factory& make) {
  TraceStoreOptions options;
  options.shards = 1;                     // pin: immune to PROVLIN_TEST_SHARDS
  options.compress = CompressMode::kOff;  // and PROVLIN_TEST_COMPRESS
  return make(options);
}

/// Captures `make`'s trace into a store of shape `v`, sealing the rest of
/// the hot tier where the shape asks for it.
Populated MakeVariant(const Factory& make, const Variant& v) {
  TraceStoreOptions options;
  options.shards = v.shards;
  options.compress = v.mode;
  Populated p = make(options);
  provenance::TraceStore* store = p.wb->store();
  if (v.seal_rest) {
    // Flush seals the remainder under kAlways; the explicit shape
    // drives the public API directly.
    if (v.mode == CompressMode::kAlways) {
      EXPECT_TRUE(store->Flush().ok()) << v.name;
    } else {
      EXPECT_TRUE(store->SealAllRuns().ok()) << v.name;
    }
  }
  return p;
}

/// Asserts that `make` produces identical answers on the all-hot store
/// and on every sealed variant: bindings and logical probe counts from
/// both engines and the reference NI, multi-run answers, EXPLAIN row
/// counts, and the record totals themselves.
void ExpectSealingIsPurelyPhysical(const Factory& make) {
  Populated base = MakeAllHot(make);
  ASSERT_NE(base.wb, nullptr);
  ASSERT_EQ(base.wb->store()->compress_mode(), CompressMode::kOff);
  ASSERT_EQ(base.wb->store()->ApproxMemory().sealed_rows, 0u);

  auto base_counts = base.wb->store()->CountAllRecords();
  ASSERT_TRUE(base_counts.ok());
  auto base_runs = base.wb->store()->ListRuns();
  ASSERT_TRUE(base_runs.ok());

  auto base_ip = IndexProjLineage::Create(base.wb->flow(), base.wb->store());
  ASSERT_TRUE(base_ip.ok());

  for (const Variant& v : kVariants) {
    Populated sealed = MakeVariant(make, v);
    ASSERT_NE(sealed.wb, nullptr);
    provenance::TraceStore* store = sealed.wb->store();
    ASSERT_EQ(store->compress_mode(), v.mode) << v.name;

    // The sealed tier is actually in play, and no row is lost to it:
    // hot + sealed rows account for every xform/xfer row captured.
    auto tiers = store->ApproxMemory();
    // (Sharded kSeal keeps the latest run per shard hot, so with few
    // runs spread 1:1 over shards nothing may be sealed — only the
    // unsharded and seal-the-rest shapes guarantee a non-empty tier.)
    if (v.seal_rest || (v.shards == 1 && base.runs.size() > 1)) {
      EXPECT_GT(tiers.sealed_rows, 0u) << v.name;
    }
    auto counts = store->CountAllRecords();
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(tiers.hot_rows + tiers.sealed_rows,
              counts->xform_rows + counts->xfer_rows)
        << v.name;
    if (v.seal_rest) {
      EXPECT_EQ(tiers.hot_rows, 0u) << v.name;
    }

    // Same runs, same record totals as the all-hot store.
    auto runs = store->ListRuns();
    ASSERT_TRUE(runs.ok());
    EXPECT_EQ(*runs, *base_runs) << v.name;
    EXPECT_EQ(counts->xform_rows, base_counts->xform_rows) << v.name;
    EXPECT_EQ(counts->xfer_rows, base_counts->xfer_rows) << v.name;
    EXPECT_EQ(counts->value_rows, base_counts->value_rows) << v.name;

    // The property is per engine: the SAME engine on the sealed store
    // answers exactly as on the all-hot store, and NI on the sealed
    // store exactly as the depth-first reference on the all-hot one.
    oracle::ReferenceNaiveLineage reference(base.wb->store());
    NaiveLineage ni(base.wb->store());
    NaiveLineage se_ni(store);
    auto se_ip = IndexProjLineage::Create(sealed.wb->flow(), store);
    ASSERT_TRUE(se_ip.ok());
    const std::pair<const LineageEngine*, const LineageEngine*> pairs[] = {
        {&reference, &se_ni},
        {&ni, &se_ni},
        {&*base_ip, &*se_ip},
    };

    for (const auto& [port, q] : base.queries) {
      for (const InterestSet& interest : base.interests) {
        auto tag = [&, port = port, q = q] {
          return port.ToString() + q.ToString() + " |P|=" +
                 std::to_string(interest.size()) + " variant=" + v.name;
        };
        for (const std::string& run : base.runs) {
          LineageRequest req =
              LineageRequest::SingleRun(run, port, q, interest);
          for (const auto& [hot, sealeng] : pairs) {
            auto want = hot->Query(req);
            ASSERT_TRUE(want.ok())
                << tag() << ": " << want.status().ToString();
            auto got = sealeng->Query(req);
            ASSERT_TRUE(got.ok())
                << sealeng->name() << " " << tag() << ": "
                << got.status().ToString();
            ASSERT_EQ(got->bindings, want->bindings)
                << sealeng->name() << " diverges at " << tag() << " run "
                << run;
            // Sealing must not change the logical probe count either —
            // only how each probe is answered.
            EXPECT_EQ(got->timing.trace_probes, want->timing.trace_probes)
                << sealeng->name() << " probes changed at " << tag();
          }

          // EXPLAIN against the sealed store mirrors the all-hot plan:
          // same steps, same logical row and binding counts.
          ExplainResult base_ex;
          ExplainResult se_ex;
          auto base_answer = base_ip->Explain(req, &base_ex);
          auto se_answer = se_ip->Explain(req, &se_ex);
          ASSERT_TRUE(base_answer.ok()) << tag();
          ASSERT_TRUE(se_answer.ok()) << tag();
          EXPECT_EQ(se_answer->bindings, base_answer->bindings);
          EXPECT_EQ(se_ex.plan.trace_probes, base_ex.plan.trace_probes)
              << tag();
          ASSERT_EQ(se_ex.steps.size(), base_ex.steps.size()) << tag();
          for (size_t s = 0; s < base_ex.steps.size(); ++s) {
            EXPECT_EQ(se_ex.steps[s].rows, base_ex.steps[s].rows)
                << tag() << " step " << s;
            EXPECT_EQ(se_ex.steps[s].bindings, base_ex.steps[s].bindings)
                << tag() << " step " << s;
            EXPECT_EQ(se_ex.steps[s].trace_probes,
                      base_ex.steps[s].trace_probes)
                << tag() << " step " << s;
          }
        }

        // Multi-run requests mix hot and sealed runs inside one batch —
        // the tier split in FindBatch must keep per-run answers intact.
        if (base.runs.size() > 1) {
          LineageRequest multi;
          multi.runs = base.runs;
          multi.target = port;
          multi.index = q;
          multi.interest = interest;
          for (const auto& [hot, sealeng] : pairs) {
            auto want = hot->Query(multi);
            ASSERT_TRUE(want.ok()) << tag();
            auto got = sealeng->Query(multi);
            ASSERT_TRUE(got.ok()) << tag();
            EXPECT_EQ(got->bindings, want->bindings)
                << "multi-run " << sealeng->name() << " diverges at "
                << tag();
          }
        }
      }
    }
  }
}

/// Synthetic chains: five runs with distinct list sizes, so sealed
/// segments carry distinct row volumes (and, sharded, land on distinct
/// shards).
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

TEST(CompressEquivalence, Synthetic) {
  ExpectSealingIsPurelyPhysical(MakeSynthetic);
}

// Forward lineage takes its cost from the calling thread's probe counts,
// which credit a sealed probe exactly like a hot one: the same forward
// engine answers a sealed store with the all-hot bindings at the all-hot
// probe count.
TEST(CompressEquivalence, ForwardCostsDoNotDependOnTier) {
  Populated base = MakeAllHot(MakeSynthetic);
  ASSERT_NE(base.wb, nullptr);
  NaiveForwardLineage base_ni(base.wb->store());
  auto base_ip =
      ForwardIndexProjLineage::Create(base.wb->flow(), base.wb->store());
  ASSERT_TRUE(base_ip.ok());
  const std::pair<PortRef, Index> targets[] = {
      {{testbed::kListGen, "list"}, Index({1})},
      {{"CHAINA_1", "x"}, Index({2})},
  };
  const InterestSet interests[] = {{}, {kWorkflowProcessor}};

  for (const Variant& v : kVariants) {
    Populated sealed = MakeVariant(MakeSynthetic, v);
    ASSERT_NE(sealed.wb, nullptr);
    NaiveForwardLineage se_ni(sealed.wb->store());
    auto se_ip =
        ForwardIndexProjLineage::Create(sealed.wb->flow(), sealed.wb->store());
    ASSERT_TRUE(se_ip.ok());
    for (const std::string& run : base.runs) {
      for (const auto& [port, q] : targets) {
        for (const InterestSet& interest : interests) {
          const std::string tag = port.ToString() + q.ToString() +
                                  " |P|=" + std::to_string(interest.size()) +
                                  " run=" + run + " variant=" + v.name;
          auto want_ni = base_ni.Query(run, port, q, interest);
          auto got_ni = se_ni.Query(run, port, q, interest);
          ASSERT_TRUE(want_ni.ok()) << tag;
          ASSERT_TRUE(got_ni.ok()) << tag;
          ASSERT_EQ(got_ni->bindings, want_ni->bindings) << "NI " << tag;
          EXPECT_EQ(got_ni->timing.trace_probes,
                    want_ni->timing.trace_probes)
              << "NI " << tag;

          auto want_ip = base_ip->Query(run, port, q, interest);
          auto got_ip = se_ip->Query(run, port, q, interest);
          ASSERT_TRUE(want_ip.ok()) << tag;
          ASSERT_TRUE(got_ip.ok()) << tag;
          ASSERT_EQ(got_ip->bindings, want_ip->bindings)
              << "IndexProj " << tag;
          EXPECT_EQ(got_ip->timing.trace_probes,
                    want_ip->timing.trace_probes)
              << "IndexProj " << tag;
        }
      }
    }
  }
}

TEST(CompressEquivalence, GK) {
  ExpectSealingIsPurelyPhysical([](const TraceStoreOptions& options) {
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

TEST(CompressEquivalence, PD) {
  ExpectSealingIsPurelyPhysical([](const TraceStoreOptions& options) {
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

class CompressEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressEquivalenceFuzz, RandomWorkflows) {
  uint64_t seed = GetParam();
  GeneratedWorkflow gen = MakeRandomWorkflow(seed);
  ASSERT_NE(gen.flow, nullptr);

  // Probe-run the workflow once to find out whether this seed executes
  // (ragged dot pairs abort) before sweeping seal variants.
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

  Random rng(seed * 1009 + 17);
  ExpectSealingIsPurelyPhysical([&](const TraceStoreOptions& options) {
    Populated p;
    auto registry = std::make_shared<engine::ActivityRegistry>();
    engine::RegisterBuiltinActivities(registry.get());
    auto wb = Workbench::Create(gen.flow, registry, options);
    EXPECT_TRUE(wb.ok());
    p.wb = std::move(*wb);
    for (int r = 0; r < 4; ++r) {
      std::string run = "cw" + std::to_string(r);
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

INSTANTIATE_TEST_SUITE_P(Seeds, CompressEquivalenceFuzz,
                         ::testing::Range<uint64_t>(20, 26));

// ---------------------------------------------------------------------------
// Maintenance against sealed runs: DeleteRun drops the segment blobs
// and only them; a single run can be sealed on demand; re-opening an
// image that carries segment blobs re-attaches or unseals them per the
// requested mode.
// ---------------------------------------------------------------------------

TEST(CompressMaintenance, DeleteRunDropsSealedSegments) {
  TraceStoreOptions options;
  options.shards = 4;
  options.compress = CompressMode::kAlways;
  auto wb = std::move(*Workbench::Synthetic(4, options));
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(wb->RunSynthetic(3, "d" + std::to_string(r)).ok());
  }
  ASSERT_TRUE(wb->store()->Flush().ok());
  auto tiers = wb->store()->ApproxMemory();
  EXPECT_EQ(tiers.hot_rows, 0u);
  EXPECT_GT(tiers.sealed_rows, 0u);

  auto before = *wb->store()->CountAllRecords();
  auto victim = *wb->store()->CountRecords("d2");
  EXPECT_GT(victim.xform_rows, 0u);
  auto removed = wb->store()->DeleteRun("d2");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GT(*removed, 0u);

  auto after = *wb->store()->CountAllRecords();
  EXPECT_EQ(after.xform_rows, before.xform_rows - victim.xform_rows);
  EXPECT_EQ(after.xfer_rows, before.xfer_rows - victim.xfer_rows);
  EXPECT_EQ(after.value_rows, before.value_rows - victim.value_rows);
  auto after_tiers = wb->store()->ApproxMemory();
  EXPECT_EQ(after_tiers.sealed_rows,
            tiers.sealed_rows - victim.xform_rows - victim.xfer_rows);

  // The surviving sealed runs answer exactly as before.
  for (const char* run : {"d0", "d1", "d3", "d4", "d5"}) {
    auto answer = wb->Naive().Query(LineageRequest::SingleRun(
        run, {kWorkflowProcessor, "RESULT"}, Index({1}),
        {testbed::kListGen}));
    ASSERT_TRUE(answer.ok()) << run;
    EXPECT_EQ(answer->bindings.size(), 1u) << run;
  }
  EXPECT_FALSE(wb->store()->DeleteRun("d2").ok());  // NotFound now
}

TEST(CompressMaintenance, SealRunSealsExactlyThatRun) {
  TraceStoreOptions options;
  options.shards = 1;
  options.compress = CompressMode::kOff;
  auto wb = std::move(*Workbench::Synthetic(5, options));
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(wb->RunSynthetic(3, "s" + std::to_string(r)).ok());
  }
  auto all_hot = wb->store()->ApproxMemory();
  EXPECT_EQ(all_hot.sealed_rows, 0u);

  auto s1 = *wb->store()->CountRecords("s1");
  ASSERT_TRUE(wb->store()->SealRun("s1").ok());
  ASSERT_TRUE(wb->store()->SealRun("s1").ok());  // idempotent
  auto mixed = wb->store()->ApproxMemory();
  EXPECT_EQ(mixed.sealed_rows, s1.xform_rows + s1.xfer_rows);
  EXPECT_EQ(mixed.hot_rows + mixed.sealed_rows,
            all_hot.hot_rows + all_hot.sealed_rows);
  EXPECT_FALSE(wb->store()->SealRun("missing").ok());  // NotFound

  // Hot and sealed runs answer alike through the same engine.
  for (const char* run : {"s0", "s1", "s2"}) {
    auto answer = wb->Naive().Query(LineageRequest::SingleRun(
        run, {kWorkflowProcessor, "RESULT"}, Index({1}),
        {testbed::kListGen}));
    ASSERT_TRUE(answer.ok()) << run;
    EXPECT_EQ(answer->bindings.size(), 1u) << run;
  }
}

TEST(CompressMaintenance, SealedImageRoundTripsAndUnsealsOnRequest) {
  std::string path =
      std::string(::testing::TempDir()) + "/compress_roundtrip.db";
  TraceStoreOptions options;
  options.shards = 2;
  options.compress = CompressMode::kAlways;
  auto wb = std::move(*Workbench::Synthetic(5, options));
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(wb->RunSynthetic(3, "p" + std::to_string(r)).ok());
  }
  ASSERT_TRUE(wb->store()->Flush().ok());
  ASSERT_GT(wb->store()->ApproxMemory().sealed_rows, 0u);
  LineageRequest req = LineageRequest::SingleRun(
      "p1", {kWorkflowProcessor, "RESULT"}, Index({1, 2}),
      {testbed::kListGen});
  auto live = wb->Naive().Query(req);
  ASSERT_TRUE(live.ok());
  ASSERT_FALSE(live->bindings.empty());
  ASSERT_TRUE(wb->db()->Save(path).ok());

  // Re-open sealed: the segment blobs re-attach and serve the probes.
  {
    storage::Database db;
    ASSERT_TRUE(db.Load(path).ok());
    TraceStoreOptions reopen;
    reopen.compress = CompressMode::kAlways;
    auto store = *provenance::TraceStore::Open(&db, reopen);
    EXPECT_GT(store.ApproxMemory().sealed_rows, 0u);
    NaiveLineage naive(&store);
    auto cold = naive.Query(req);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold->bindings, live->bindings);
  }

  // Re-open with compression off: everything unseals back into the
  // B+tree tier and the answers stand.
  {
    storage::Database db;
    ASSERT_TRUE(db.Load(path).ok());
    TraceStoreOptions reopen;
    reopen.compress = CompressMode::kOff;
    auto store = *provenance::TraceStore::Open(&db, reopen);
    EXPECT_EQ(store.ApproxMemory().sealed_rows, 0u);
    EXPECT_GT(store.ApproxMemory().hot_rows, 0u);
    NaiveLineage naive(&store);
    auto warm = naive.Query(req);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->bindings, live->bindings);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tail sealing (DESIGN.md §13): under a sealing mode a run captured alone
// on its shard stays unindexed and seals straight from the table's tail.
// Its segments must be byte-equal to sealing the same rows from the
// indexed tier, reads in the middle of a capture must see (and keep)
// every row, and the tier gauges must account for every row throughout.
// ---------------------------------------------------------------------------

using provenance::TraceStore;
using provenance::XferRecord;
using provenance::XformRecord;

/// Every segment blob of `db`, by key.
std::map<std::string, std::string> SegmentBlobs(const storage::Database& db) {
  std::map<std::string, std::string> out;
  for (const std::string& key : db.BlobKeys()) out[key] = *db.GetBlob(key);
  return out;
}

/// Writes trace rows [from, to) of a small hand-made run straight through
/// the store's write API: one value, one xform and one xfer row per step.
void WriteTraceRows(TraceStore* store, const std::string& run, int from,
                    int to) {
  const common::SymbolId run_sym = store->Intern(run);
  for (int i = from; i < to; ++i) {
    auto value = store->InternValue(run, "\"v" + std::to_string(i) + "\"");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    XformRecord x;
    x.run = run_sym;
    x.event_id = i;
    x.processor = store->Intern("P");
    x.has_in = true;
    x.in_port = store->Intern("x");
    x.in_index = Index({i % 3, i});
    x.in_value = *value;
    x.has_out = true;
    x.out_port = store->Intern("y");
    x.out_index = Index({i});
    x.out_value = *value;
    ASSERT_TRUE(store->InsertXform(x).ok());
    XferRecord f;
    f.run = run_sym;
    f.src_proc = store->Intern("P");
    f.src_port = store->Intern("y");
    f.src_index = Index({i});
    f.dst_proc = store->Intern("Q");
    f.dst_port = store->Intern("x");
    f.dst_index = Index({i});
    f.value_id = *value;
    ASSERT_TRUE(store->InsertXfer(f).ok());
  }
}

/// Rows of `run` a full-value probe of each trace table finds.
size_t ProbedRows(const TraceStore& store, const std::string& run) {
  auto xforms = store.FindProducing(run, "P", "y", Index());
  auto xfers = store.FindXfersInto(run, "Q", "x", Index());
  EXPECT_TRUE(xforms.ok() && xfers.ok());
  return xforms.ok() && xfers.ok() ? xforms->size() + xfers->size() : 0;
}

/// The tier gauges and the ingest counter of shard 0: sealing moves rows
/// between tiers, DeleteRun removes them, nothing else changes the sum.
class TierAccounting {
 public:
  TierAccounting()
      : segment_rows_(common::metrics::GetGauge(
            "provenance/shard0/segment_rows")),
        hot_rows_(common::metrics::GetGauge("provenance/shard0/hot_rows")),
        ingested_(common::metrics::GetCounter("provenance/rows_ingested")),
        base_(Resident() - static_cast<int64_t>(ingested_->Value())) {}

  void Removed(size_t rows) { base_ -= static_cast<int64_t>(rows); }

  void Expect(const char* step) const {
    EXPECT_EQ(Resident() - static_cast<int64_t>(ingested_->Value()), base_)
        << "segment_rows + hot_rows != rows_ingested after " << step;
  }

 private:
  int64_t Resident() const {
    return segment_rows_->Value() + hot_rows_->Value();
  }

  common::metrics::Gauge* segment_rows_;
  common::metrics::Gauge* hot_rows_;
  common::metrics::Counter* ingested_;
  int64_t base_;
};

/// Opens an in-memory single-shard store in `mode` on `db`.
TraceStore OpenSingleShard(storage::Database* db, CompressMode mode,
                           bool async = false) {
  TraceStoreOptions options;
  options.shards = 1;
  options.compress = mode;
  options.async_ingest = async;
  auto store = TraceStore::Open(db, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TEST(CompressTailSeal, SegmentsEqualSealRunOfAnUncompressedCapture) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (CompressMode mode : {CompressMode::kSeal, CompressMode::kAlways}) {
      auto capture = [&](CompressMode m) {
        TraceStoreOptions options;
        options.shards = shards;
        options.compress = m;
        auto wb = std::move(*Workbench::Synthetic(6, options));
        for (int r = 0; r < 8; ++r) {
          EXPECT_TRUE(wb->RunSynthetic(2 + r % 5, "t" + std::to_string(r)).ok());
        }
        return wb;
      };
      auto off = capture(CompressMode::kOff);
      for (int r = 0; r < 8; ++r) {
        ASSERT_TRUE(off->store()->SealRun("t" + std::to_string(r)).ok());
      }
      auto tail = capture(mode);
      // No read since the capture: the latest run on each shard is still
      // the unindexed tail, and seals from it here.
      ASSERT_TRUE(tail->store()->SealAllRuns().ok());
      auto want = SegmentBlobs(*off->db());
      auto got = SegmentBlobs(*tail->db());
      EXPECT_EQ(got.size(), 16u);
      ASSERT_EQ(got.size(), want.size()) << shards << " shards";
      for (const auto& [key, bytes] : want) {
        ASSERT_EQ(got.count(key), 1u) << key;
        EXPECT_TRUE(got[key] == bytes)
            << key << " differs (" << shards << " shards, mode "
            << static_cast<int>(mode) << ")";
      }
    }
  }
}

// Capture under kSeal builds every segment from the table tail: no row
// is indexed and then erased, and no slot is left as a tombstone.
TEST(CompressTailSeal, CaptureUnderSealDeletesNoRows) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    TraceStoreOptions options;
    options.shards = shards;
    options.compress = CompressMode::kSeal;
    auto wb = std::move(*Workbench::Synthetic(5, options));
    common::metrics::Counter* deletes =
        common::metrics::GetCounter("storage/deletes");
    const uint64_t before = deletes->Value();
    for (int r = 0; r < 12; ++r) {
      ASSERT_TRUE(wb->RunSynthetic(2 + r % 4, "k" + std::to_string(r)).ok());
    }
    EXPECT_EQ(deletes->Value(), before) << shards << " shards";
    for (size_t k = 0; k < shards; ++k) {
      for (const char* base :
           {provenance::tables::kXform, provenance::tables::kXfer}) {
        storage::Table* t =
            *wb->db()->GetTable(provenance::ShardTableName(base, k));
        EXPECT_EQ(t->num_slots(), t->num_rows())
            << provenance::ShardTableName(base, k);
      }
    }
    EXPECT_GT(wb->store()->ApproxMemory().sealed_rows, 0u);
  }
}

TEST(CompressTailSeal, RowsWrittenWithoutFlushAnswerProbes) {
  for (bool async : {false, true}) {
    for (CompressMode mode : {CompressMode::kSeal, CompressMode::kAlways}) {
      storage::Database db;
      TraceStore store = OpenSingleShard(&db, mode, async);
      ASSERT_TRUE(store.InsertRun("u0", "wf").ok());
      WriteTraceRows(&store, "u0", 0, 20);
      ASSERT_TRUE(store.InsertRun("u1", "wf").ok());
      WriteTraceRows(&store, "u1", 0, 7);
      // u0 was sealed by InsertRun(u1); u1's rows are unflushed.
      EXPECT_EQ(ProbedRows(store, "u1"), 14u) << "async=" << async;
      EXPECT_EQ(ProbedRows(store, "u0"), 40u) << "async=" << async;
      auto counts = store.CountRecords("u1");
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(counts->TotalDependencyRecords(), 14u);
    }
  }
}

TEST(CompressTailSeal, ReadsMidCaptureAndInterleavedRunsKeepEveryRow) {
  // The reference: the same rows under kOff, each run sealed by SealRun.
  storage::Database ref_db;
  {
    TraceStore ref = OpenSingleShard(&ref_db, CompressMode::kOff);
    for (const char* run : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(ref.InsertRun(run, "wf").ok());
    }
    WriteTraceRows(&ref, "a", 0, 30);
    for (int i = 0; i < 12; ++i) {
      WriteTraceRows(&ref, "c", i, i + 1);
      WriteTraceRows(&ref, "d", i, i + 1);
    }
    for (const char* run : {"a", "c", "d"}) ASSERT_TRUE(ref.SealRun(run).ok());
  }
  const auto want = SegmentBlobs(ref_db);

  storage::Database db;
  TraceStore store = OpenSingleShard(&db, CompressMode::kSeal);
  TierAccounting tiers;
  ASSERT_TRUE(store.InsertRun("a", "wf").ok());
  WriteTraceRows(&store, "a", 0, 12);
  tiers.Expect("appending a's first rows");
  // A read mid-capture indexes a's rows; the capture then continues.
  EXPECT_EQ(ProbedRows(store, "a"), 24u);
  WriteTraceRows(&store, "a", 12, 30);
  tiers.Expect("continuing a after a read");
  EXPECT_EQ(ProbedRows(store, "a"), 60u);
  // b opens: a seals through the indexed path.
  ASSERT_TRUE(store.InsertRun("b", "wf").ok());
  tiers.Expect("sealing a");
  EXPECT_EQ(ProbedRows(store, "a"), 60u);
  // b has no rows yet: deleting it removes its run row alone.
  auto removed = store.DeleteRun("b");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  tiers.Removed(*removed);
  tiers.Expect("deleting b");

  // Two runs interleaved row by row on one shard.
  ASSERT_TRUE(store.InsertRun("c", "wf").ok());
  ASSERT_TRUE(store.InsertRun("d", "wf").ok());
  for (int i = 0; i < 12; ++i) {
    WriteTraceRows(&store, "c", i, i + 1);
    WriteTraceRows(&store, "d", i, i + 1);
    tiers.Expect("interleaving c and d");
  }
  EXPECT_EQ(ProbedRows(store, "c"), 24u);
  EXPECT_EQ(ProbedRows(store, "d"), 24u);
  ASSERT_TRUE(store.SealAllRuns().ok());
  tiers.Expect("sealing every run");
  EXPECT_EQ(ProbedRows(store, "c"), 24u);
  EXPECT_EQ(ProbedRows(store, "d"), 24u);

  // Whichever path sealed them, the segments equal the reference's.
  const auto got = SegmentBlobs(db);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, bytes] : want) {
    ASSERT_EQ(got.count(key), 1u) << key;
    EXPECT_TRUE(got.at(key) == bytes) << key << " differs";
  }

  // A tail run deleted before it seals leaves no tombstone behind.
  const size_t xform_slots = (*db.GetTable(provenance::tables::kXform))->num_slots();
  const size_t xfer_slots = (*db.GetTable(provenance::tables::kXfer))->num_slots();
  ASSERT_TRUE(store.InsertRun("e", "wf").ok());
  WriteTraceRows(&store, "e", 0, 5);
  tiers.Expect("appending e");
  removed = store.DeleteRun("e");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u + 5u + 10u);  // run row, values, trace rows
  tiers.Removed(*removed);
  tiers.Expect("deleting e");
  EXPECT_EQ((*db.GetTable(provenance::tables::kXform))->num_slots(),
            xform_slots);
  EXPECT_EQ((*db.GetTable(provenance::tables::kXfer))->num_slots(),
            xfer_slots);
  for (const char* base :
       {provenance::tables::kXform, provenance::tables::kXfer}) {
    EXPECT_TRUE((*db.GetTable(base))->CheckIndexConsistency().ok()) << base;
  }
  EXPECT_EQ(ProbedRows(store, "e"), 0u);
}

}  // namespace
}  // namespace provlin::lineage

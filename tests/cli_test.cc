// The provlin command-line tool, driven in-process.

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/tracing.h"

namespace provlin::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  CliTest() {
    // Per-test paths: ctest runs each test in its own process, and
    // concurrent tests sharing one db file race each other.
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    db_path_ = std::string(::testing::TempDir()) + "/cli_" + name + ".db";
    wal_path_ = std::string(::testing::TempDir()) + "/cli_" + name + ".wal";
    std::remove(db_path_.c_str());
    std::remove(wal_path_.c_str());
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string db_path_;
  std::string wal_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage"), std::string::npos);
  EXPECT_EQ(Run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
  EXPECT_EQ(Run({}), 2);
}

TEST_F(CliTest, MissingFlagsAreDiagnosed) {
  EXPECT_EQ(Run({"run", "--workflow", "builtin:gk"}), 1);
  EXPECT_NE(err_.str().find("--db"), std::string::npos);
  EXPECT_EQ(Run({"runs"}), 1);
  EXPECT_EQ(Run({"run", "--db"}), 2);  // flag without value
}

TEST_F(CliTest, RunPersistsAndRunsListsIt) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "sweep-1", "--input", "ListSize=3"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("sweep-1 completed"), std::string::npos);
  EXPECT_NE(out_.str().find("RESULT ="), std::string::npos);

  ASSERT_EQ(Run({"runs", "--db", db_path_}), 0) << err_.str();
  EXPECT_EQ(out_.str(), "sweep-1\n");
}

TEST_F(CliTest, LineageBothEnginesAgree) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:3", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=4"}),
            0)
      << err_.str();

  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:3", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "2,3", "--focus",
                 "LISTGEN_1"}),
            0)
      << err_.str();
  std::string indexproj_out = out_.str();
  EXPECT_NE(indexproj_out.find("<LISTGEN_1:size[], 4>"), std::string::npos);

  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:3", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "2,3", "--focus", "LISTGEN_1",
                 "--engine", "naive"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("<LISTGEN_1:size[], 4>"), std::string::npos);

  EXPECT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:3", "--run", "r0", "--target",
                 "workflow:RESULT", "--engine", "warp-drive"}),
            1);
}

TEST_F(CliTest, ForwardLineage) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "r0", "--target",
                 "LISTGEN_1:list", "--index", "2", "--focus", "workflow",
                 "--forward", "true"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("impact of LISTGEN_1:list[2]"),
            std::string::npos);
  EXPECT_NE(out_.str().find("workflow:RESULT"), std::string::npos);
}

TEST_F(CliTest, SqlQuery) {
  // Raw SQL addresses physical tables; pin --shards 1 so 'runs' holds
  // every run regardless of any PROVLIN_TEST_SHARDS environment setting.
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2",
                 "--shards", "1"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"sql", "--db", db_path_,
                 "SELECT COUNT(*) FROM runs WHERE run_id = 'r0'"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("count\n1\n"), std::string::npos);
  EXPECT_EQ(Run({"sql", "--db", db_path_, "NOT SQL"}), 1);
  EXPECT_EQ(Run({"sql", "--db", db_path_}), 1);  // missing statement
}

TEST_F(CliTest, DotAndCounts) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:1", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"dot", "--db", db_path_, "--run", "r0"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("digraph"), std::string::npos);

  ASSERT_EQ(Run({"counts", "--db", db_path_, "--run", "r0"}), 0)
      << err_.str();
  // l=1, d=2: 4*2*1 + 2*4 + 6 = 22 dependency records.
  EXPECT_NE(out_.str().find("dependency records: 22"), std::string::npos);
}

TEST_F(CliTest, RunWithWalIsRecoverable) {
  // Pin --shards 1: this test asserts the legacy single-file WAL layout
  // (a sharded store writes the run's rows to a per-shard .shard-k file).
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:1", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2", "--wal",
                 wal_path_, "--shards", "1"}),
            0)
      << err_.str();
  std::ifstream wal(wal_path_, std::ios::binary);
  ASSERT_TRUE(wal.good());
  wal.seekg(0, std::ios::end);
  EXPECT_GT(wal.tellg(), 0);
}

TEST_F(CliTest, WorkflowFromFile) {
  std::string wf_path = std::string(::testing::TempDir()) + "/cli_wf.txt";
  {
    std::ofstream f(wf_path);
    f << "workflow filetest\n"
      << "in items list(string)\n"
      << "out shouted list(string)\n"
      << "proc shout activity=to_upper\n"
      << "  pin x string\n"
      << "  pout y string\n"
      << "arc workflow:items -> shout:x\n"
      << "arc shout:y -> workflow:shouted\n";
  }
  ASSERT_EQ(Run({"workflow", "--workflow", wf_path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("workflow filetest"), std::string::npos);
  EXPECT_NE(out_.str().find("shout: l=1"), std::string::npos);

  ASSERT_EQ(Run({"run", "--workflow", wf_path, "--db", db_path_, "--run",
                 "f0", "--input", "items=[a,b]"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("shouted = [\"A\",\"B\"]"), std::string::npos);

  EXPECT_EQ(Run({"workflow", "--workflow", "/no/such/file.wf"}), 1);
  EXPECT_EQ(Run({"workflow", "--workflow", "builtin:synthetic:0"}), 1);
}

TEST_F(CliTest, BuiltinGkScenario) {
  ASSERT_EQ(
      Run({"run", "--workflow", "builtin:gk", "--db", db_path_, "--run",
           "gk0", "--input",
           "list_of_geneIDList=[[\"20816\",\"26416\"],[\"328788\"]]"}),
      0)
      << err_.str();
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow", "builtin:gk",
                 "--run", "gk0", "--target", "workflow:paths_per_gene",
                 "--index", "2", "--focus", "get_pathways_by_genes"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("genes_id_list[2]"), std::string::npos);
  EXPECT_NE(out_.str().find("mmu:328788"), std::string::npos);
}

TEST_F(CliTest, MultiRunLineage) {
  for (int d = 2; d <= 4; ++d) {
    ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                   db_path_, "--run", "d" + std::to_string(d), "--input",
                   "ListSize=" + std::to_string(d)}),
              0)
        << err_.str();
  }
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "d2", "--run", "d3",
                 "--run", "d4", "--target", "workflow:RESULT", "--index",
                 "1,1", "--focus", "LISTGEN_1"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("(3 bindings"), std::string::npos);
}

TEST_F(CliTest, ThreadedBatchLineageMatchesSequential) {
  for (int d = 2; d <= 4; ++d) {
    ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                   db_path_, "--run", "d" + std::to_string(d), "--input",
                   "ListSize=" + std::to_string(d)}),
              0)
        << err_.str();
  }
  std::vector<std::string> query = {
      "lineage", "--db", db_path_, "--workflow", "builtin:synthetic:2",
      "--run", "d2", "--run", "d3", "--run", "d4",
      "--target", "workflow:RESULT", "--index", "1,1",
      "--focus", "LISTGEN_1"};
  ASSERT_EQ(Run(query), 0) << err_.str();
  std::string sequential = out_.str();

  query.push_back("--threads");
  query.push_back("4");
  ASSERT_EQ(Run(query), 0) << err_.str();
  std::string batched = out_.str();
  // Same bindings, plus a service-metrics line.
  EXPECT_NE(batched.find("(3 bindings"), std::string::npos) << batched;
  EXPECT_NE(batched.find("service: requests=3"), std::string::npos) << batched;
  for (const char* run : {"d2:", "d3:", "d4:"}) {
    EXPECT_NE(batched.find(run), std::string::npos) << batched;
    EXPECT_NE(sequential.find(run), std::string::npos);
  }
}

TEST_F(CliTest, ExportCommand) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:1", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"export", "--db", db_path_, "--run", "r0"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("\"opm\": \"1.1\""), std::string::npos);
  EXPECT_NE(out_.str().find("wasGeneratedBy"), std::string::npos);
  EXPECT_EQ(Run({"export", "--db", db_path_, "--run", "ghost"}), 1);
}

TEST_F(CliTest, DiffCommand) {
  ASSERT_EQ(Run({"diff", "--workflow", "builtin:synthetic:1", "--workflow",
                 "builtin:synthetic:2"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("+proc CHAINA_2"), std::string::npos);
  EXPECT_EQ(Run({"diff", "--workflow", "builtin:synthetic:1"}), 1);
}

TEST_F(CliTest, PruneCommand) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:1", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:1", "--db",
                 db_path_, "--run", "r1", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"prune", "--db", db_path_, "--run", "r0"}), 0)
      << err_.str();
  ASSERT_EQ(Run({"runs", "--db", db_path_}), 0);
  EXPECT_EQ(out_.str(), "r1\n");
  EXPECT_EQ(Run({"prune", "--db", db_path_, "--run", "ghost"}), 1);
}

TEST_F(CliTest, ContinueOnErrorRun) {
  std::string wf_path = std::string(::testing::TempDir()) + "/cli_fail.txt";
  {
    std::ofstream f(wf_path);
    f << "workflow failing\n"
      << "in items list(string)\n"
      << "out checked list(string)\n"
      << "proc filter activity=fail_if\n"
      << "  pin x string\n"
      << "  pout y string\n"
      << "  config match=bad\n"
      << "arc workflow:items -> filter:x\n"
      << "arc filter:y -> workflow:checked\n";
  }
  // Without the flag, the run aborts.
  EXPECT_EQ(Run({"run", "--workflow", wf_path, "--db", db_path_, "--run",
                 "r0", "--input", "items=[ok,bad]"}),
            1);
  // With it, the run completes and reports the failure count.
  ASSERT_EQ(Run({"run", "--workflow", wf_path, "--db", db_path_, "--run",
                 "r1", "--input", "items=[ok,bad]", "--continue-on-error",
                 "true"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("1 failed"), std::string::npos);
  EXPECT_NE(out_.str().find("error("), std::string::npos);
}

TEST_F(CliTest, StatsCommandExposesRegistry) {
  ASSERT_EQ(Run({"stats"}), 0) << err_.str();
  // Well-known instruments are pre-registered so a scrape sees every
  // series from the start, even at zero.
  EXPECT_NE(out_.str().find("# TYPE provlin_storage_index_probes counter"),
            std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("provlin_lineage_plan_cache_hits 0"),
            std::string::npos);
  EXPECT_NE(out_.str().find("provlin_service_queue_wait_ms_bucket"),
            std::string::npos);

  ASSERT_EQ(Run({"stats", "--format", "json"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("\"counters\""), std::string::npos)
      << out_.str();
  EXPECT_EQ(Run({"stats", "--format", "xml"}), 1);
}

TEST_F(CliTest, StatsShowsTracerRingAndShardTierGauges) {
  // The tracer-ring health gauges are folded into every scrape
  // (PublishTracingStats), so dropped-span visibility is in the default
  // text output even with tracing off — all series present, at zero.
  ASSERT_EQ(Run({"stats"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("# TYPE provlin_tracing_ring_dropped gauge"),
            std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("provlin_tracing_ring_dropped 0"),
            std::string::npos);
  EXPECT_NE(out_.str().find("provlin_tracing_ring_events 0"),
            std::string::npos);

  // Opening a store registers the per-shard two-tier occupancy gauges
  // (provenance/shard<k>/{hot_rows,segment_bytes}); after a real run
  // the hot tier holds every ingested row.
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"stats", "--db", db_path_}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("provlin_provenance_shard0_hot_rows"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("provlin_provenance_shard0_segment_bytes"),
            std::string::npos);
}

TEST_F(CliTest, LineageStatsFlagShowsQueryTraffic) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "1,1", "--stats", "true"}),
            0)
      << err_.str();
  // The exposition follows the normal lineage output and reflects the
  // query that just ran: probes were counted both by the lineage tier
  // and the storage tier.
  EXPECT_NE(out_.str().find("lineage of workflow:RESULT"),
            std::string::npos);
  EXPECT_NE(out_.str().find("provlin_lineage_queries 1"), std::string::npos)
      << out_.str();
  // The registry's probe total must equal the per-query timing the
  // lineage output reports ("(N bindings, M trace probes, ...").
  std::string text = out_.str();
  size_t bindings_pos = text.find(" bindings, ");
  ASSERT_NE(bindings_pos, std::string::npos) << text;
  size_t probes_begin = bindings_pos + std::string(" bindings, ").size();
  uint64_t timing_probes =
      std::strtoull(text.c_str() + probes_begin, nullptr, 10);
  EXPECT_GT(timing_probes, 0u);
  EXPECT_NE(text.find("provlin_lineage_trace_probes " +
                      std::to_string(timing_probes) + "\n"),
            std::string::npos)
      << text;
}

TEST_F(CliTest, LineageTraceOutWritesChromeTraceJson) {
  std::string trace_path =
      std::string(::testing::TempDir()) + "/cli_trace_out.json";
  std::remove(trace_path.c_str());
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "1,1", "--trace-out",
                 trace_path}),
            0)
      << err_.str();
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << trace_path;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string trace = buf.str();
  EXPECT_NE(trace.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(trace.find("indexproj/query"), std::string::npos) << trace;
  EXPECT_NE(trace.find("trace/find_batch"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  // Tracing is scoped to the command: the guard disabled it on exit.
  EXPECT_FALSE(common::tracing::Tracer::Global().enabled());
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, ExplainCommandPrintsPerStepCosts) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=3"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"explain", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "1,1"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("IndexProj plan:"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("step  0"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("probes="), std::string::npos);
  EXPECT_NE(out_.str().find("descents="), std::string::npos);
  EXPECT_NE(out_.str().find("bindings,"), std::string::npos);
  // Explain still requires the full lineage argument set.
  EXPECT_EQ(Run({"explain", "--db", db_path_}), 1);
  EXPECT_NE(err_.str().find("--workflow"), std::string::npos);
}

TEST_F(CliTest, ExplainShowsGeneratedTraceQueries) {
  ASSERT_EQ(Run({"run", "--workflow", "builtin:synthetic:2", "--db",
                 db_path_, "--run", "r0", "--input", "ListSize=2"}),
            0)
      << err_.str();
  ASSERT_EQ(Run({"lineage", "--db", db_path_, "--workflow",
                 "builtin:synthetic:2", "--run", "r0", "--target",
                 "workflow:RESULT", "--index", "1,1", "--focus", "LISTGEN_1",
                 "--explain", "true"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("plan (1 trace queries"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("Q(LISTGEN_1, size, [])"), std::string::npos)
      << out_.str();
}

}  // namespace
}  // namespace provlin::cli

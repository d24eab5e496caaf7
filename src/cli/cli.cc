#include "cli/cli.h"

#include <csignal>

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/tracing.h"
#include "engine/builtin_activities.h"
#include "engine/executor.h"
#include "lineage/engine.h"
#include "lineage/forward_lineage.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "lineage/service.h"
#include "provenance/opm_export.h"
#include "provenance/provenance_graph.h"
#include "provenance/recorder.h"
#include "provenance/store_open.h"
#include "provenance/trace_store.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sql.h"
#include "storage/wal.h"
#include "testbed/gk_workflow.h"
#include "testbed/pd_workflow.h"
#include "testbed/synthetic.h"
#include "values/value_parser.h"
#include "workflow/builder.h"
#include "workflow/depth_propagation.h"
#include "workflow/diff.h"
#include "workflow/validate.h"
#include "workflow/workflow_io.h"

namespace provlin::cli {
namespace {

/// Parsed command line: positional command + repeatable flags.
struct Args {
  std::string command;
  std::map<std::string, std::vector<std::string>> flags;
  std::vector<std::string> positional;

  const std::string* Get(const std::string& flag) const {
    auto it = flags.find(flag);
    if (it == flags.end() || it->second.empty()) return nullptr;
    return &it->second.front();
  }
  std::vector<std::string> GetAll(const std::string& flag) const {
    auto it = flags.find(flag);
    return it == flags.end() ? std::vector<std::string>{} : it->second;
  }
};

Result<Args> ParseArgs(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) return Status::InvalidArgument("missing command");
  args.command = argv[0];
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (StartsWith(a, "--")) {
      std::string flag = a.substr(2);
      if (i + 1 >= argv.size()) {
        return Status::InvalidArgument("flag --" + flag + " needs a value");
      }
      args.flags[flag].push_back(argv[++i]);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// Loaded workflow + matching activity registry.
struct LoadedWorkflow {
  std::shared_ptr<const workflow::Dataflow> flow;
  std::shared_ptr<engine::ActivityRegistry> registry;
};

Result<LoadedWorkflow> LoadWorkflow(const std::string& spec) {
  LoadedWorkflow out;
  if (spec == "builtin:gk") {
    PROVLIN_ASSIGN_OR_RETURN(out.flow, testbed::MakeGkWorkflow());
    PROVLIN_ASSIGN_OR_RETURN(out.registry, testbed::MakeGkRegistry());
    return out;
  }
  if (spec == "builtin:pd") {
    PROVLIN_ASSIGN_OR_RETURN(out.flow, testbed::MakePdWorkflow());
    PROVLIN_ASSIGN_OR_RETURN(out.registry, testbed::MakePdRegistry());
    return out;
  }
  if (StartsWith(spec, "builtin:synthetic:")) {
    int64_t l = 0;
    if (!ParseInt64(spec.substr(18), &l) || l < 1) {
      return Status::InvalidArgument("bad synthetic chain length in '" +
                                     spec + "'");
    }
    PROVLIN_ASSIGN_OR_RETURN(out.flow, testbed::MakeSyntheticWorkflow(
                                           static_cast<int>(l)));
  } else {
    std::ifstream in(spec);
    if (!in) return Status::IoError("cannot open workflow file '" + spec + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    PROVLIN_ASSIGN_OR_RETURN(std::shared_ptr<workflow::Dataflow> parsed,
                             workflow::ParseDataflow(ss.str()));
    PROVLIN_ASSIGN_OR_RETURN(std::shared_ptr<workflow::Dataflow> flat,
                             parsed->Flatten());
    PROVLIN_RETURN_IF_ERROR(workflow::Validate(*flat));
    out.flow = std::move(flat);
  }
  out.registry = std::make_shared<engine::ActivityRegistry>();
  engine::RegisterBuiltinActivities(out.registry.get());
  return out;
}

/// Parses a 1-based "1,2" index (paper notation); "" or "[]" is whole.
Result<Index> ParseCliIndex(const std::string& text) {
  std::string_view t = Trim(text);
  if (!t.empty() && t.front() == '[') t = t.substr(1);
  if (!t.empty() && t.back() == ']') t = t.substr(0, t.size() - 1);
  if (Trim(t).empty()) return Index();
  std::vector<int32_t> parts;
  for (const std::string& tok : Split(t, ',')) {
    int64_t v = 0;
    if (!ParseInt64(std::string(Trim(tok)), &v) || v < 1) {
      return Status::InvalidArgument("bad index component '" + tok +
                                     "' (indices are 1-based)");
    }
    parts.push_back(static_cast<int32_t>(v - 1));
  }
  return Index(std::move(parts));
}

/// Plain database open for commands that must not touch the shard
/// layout (`sql` queries physical tables, so resharding under it would
/// change what it sees).
Result<storage::Database> OpenDb(const std::string& path) {
  storage::Database db;
  std::ifstream probe(path);
  if (probe.good()) {
    PROVLIN_RETURN_IF_ERROR(db.Load(path));
  }
  return db;
}

Status RequireFlag(const Args& args, const char* flag) {
  if (args.Get(flag) == nullptr) {
    return Status::InvalidArgument(std::string("missing --") + flag);
  }
  return Status::OK();
}

/// Store options from the command line, one flag per StoreOptions
/// field: --db PATH, --wal BASE, --shards N (0 = auto: keep the
/// database's recorded count), --async-ingest true,
/// --compress off|seal|always.
Result<provenance::StoreOptions> CliStoreOptions(const Args& args) {
  provenance::StoreOptions options;
  if (const std::string* db = args.Get("db")) options.db_path = *db;
  if (const std::string* wal = args.Get("wal")) options.wal_base = *wal;
  if (const std::string* shards = args.Get("shards")) {
    int64_t n = 0;
    if (!ParseInt64(*shards, &n) || n < 1) {
      return Status::InvalidArgument("bad --shards value '" + *shards + "'");
    }
    options.shards = static_cast<size_t>(n);
  }
  if (const std::string* async = args.Get("async-ingest")) {
    options.async_ingest = *async != "false";
  }
  if (const std::string* compress = args.Get("compress")) {
    if (*compress == "off") {
      options.compress = provenance::CompressMode::kOff;
    } else if (*compress == "seal") {
      options.compress = provenance::CompressMode::kSeal;
    } else if (*compress == "always") {
      options.compress = provenance::CompressMode::kAlways;
    } else {
      return Status::InvalidArgument("bad --compress value '" + *compress +
                                     "' (off|seal|always)");
    }
  }
  return options;
}

Result<provenance::OpenedStore> OpenStoreFromArgs(const Args& args) {
  PROVLIN_ASSIGN_OR_RETURN(provenance::StoreOptions options,
                           CliStoreOptions(args));
  return provenance::OpenStore(options);
}

/// Pre-registers the well-known instrument names so `provlin stats`
/// exposes the whole schema even for counters this process never
/// bumped: an untouched instrument reads 0, and a stable exposition is
/// what scrapers and the CLI tests key on. The names come from the one
/// authoritative list in common/metric_names.h — the same list the
/// project lint holds every registration site to.
void TouchWellKnownInstruments() {
  namespace metrics = common::metrics;
  namespace names = common::metrics::names;
  for (std::string_view name : names::kCounterNames) {
    metrics::GetCounter(name);
  }
  for (std::string_view name : names::kGaugeNames) {
    metrics::GetGauge(name);
  }
  for (std::string_view name : names::kLatencyHistogramNames) {
    metrics::GetHistogram(name);
  }
  for (std::string_view name : names::kSizeHistogramNames) {
    metrics::GetHistogram(name, metrics::DefaultSizeBounds());
  }
}

Status DumpStats(const std::string& format, std::ostream& out) {
  // Fold the tracer ring's health into the snapshot so dropped spans
  // and ring occupancy show up in the default text output.
  common::tracing::PublishTracingStats();
  common::metrics::MetricsSnapshot snap =
      common::metrics::MetricsRegistry::Global().Snapshot();
  if (format == "prometheus") {
    out << snap.ToPrometheusText();
  } else if (format == "json") {
    out << snap.ToJson() << "\n";
  } else {
    return Status::InvalidArgument("unknown --format '" + format +
                                   "' (prometheus|json)");
  }
  return Status::OK();
}

/// RAII capture window for `--trace-out FILE`: enables the global tracer
/// for the command's working section and writes the Chrome trace JSON
/// when the window closes (nothing happens when no path was requested).
/// Call Finish() right after the traced work to exclude output
/// formatting from the capture; the destructor is the error-path
/// fallback so early returns still flush whatever was captured.
class TraceOutScope {
 public:
  explicit TraceOutScope(const std::string* path) : path_(path) {
    if (path_ != nullptr) common::tracing::Tracer::Global().Enable();
  }
  ~TraceOutScope() { Finish(); }
  TraceOutScope(const TraceOutScope&) = delete;
  TraceOutScope& operator=(const TraceOutScope&) = delete;

  /// Stops the capture and writes the trace file (idempotent).
  void Finish() {
    if (path_ == nullptr || finished_) return;
    finished_ = true;
    common::tracing::Tracer& tracer = common::tracing::Tracer::Global();
    tracer.Disable();
    std::ofstream out(*path_);
    if (!out) {
      PROVLIN_LOG(Error) << "cannot write trace file '" << *path_ << "'";
      return;
    }
    out << tracer.ExportChromeTrace();
  }

 private:
  const std::string* path_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

Status CmdRun(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "workflow"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "run"));
  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow loaded,
                           LoadWorkflow(*args.Get("workflow")));
  // --wal attaches store-owned per-shard capture WALs: one file per
  // shard plus a manifest when sharded; at one shard this is exactly
  // the legacy single-file layout.
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  provenance::TraceStore& store = opened.store();

  std::map<std::string, Value> inputs;
  for (const std::string& binding : args.GetAll("input")) {
    size_t eq = binding.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--input expects port=literal, got '" +
                                     binding + "'");
    }
    PROVLIN_ASSIGN_OR_RETURN(Value v, ParseValue(binding.substr(eq + 1)));
    inputs[binding.substr(0, eq)] = std::move(v);
  }

  engine::ExecuteOptions options;
  if (const std::string* coe = args.Get("continue-on-error")) {
    options.continue_on_error = *coe != "false";
  }

  provenance::TraceRecorder recorder(&store);
  engine::Executor executor(loaded.registry.get(), &recorder);
  PROVLIN_ASSIGN_OR_RETURN(
      engine::RunResult result,
      executor.Execute(*loaded.flow, inputs, *args.Get("run"), options));
  PROVLIN_RETURN_IF_ERROR(recorder.status());
  PROVLIN_RETURN_IF_ERROR(opened.Save());

  out << "run " << result.run_id << " completed ("
      << result.total_invocations << " invocations";
  if (result.failed_invocations > 0) {
    out << ", " << result.failed_invocations << " failed";
  }
  out << ")\n";
  for (const auto& [port, value] : result.outputs) {
    out << "  " << port << " = " << value.ToString() << "\n";
  }
  return Status::OK();
}

Status CmdRuns(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  PROVLIN_ASSIGN_OR_RETURN(std::vector<std::string> runs,
                           opened.store().ListRuns());
  for (const std::string& run : runs) out << run << "\n";
  return Status::OK();
}

Status CmdLineage(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "workflow"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "target"));
  std::vector<std::string> runs = args.GetAll("run");
  if (runs.empty()) return Status::InvalidArgument("missing --run");

  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow loaded,
                           LoadWorkflow(*args.Get("workflow")));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  provenance::TraceStore& store = opened.store();

  PROVLIN_ASSIGN_OR_RETURN(workflow::PortRef target,
                           workflow::ParsePortRef(*args.Get("target")));
  Index index;
  if (const std::string* idx = args.Get("index")) {
    PROVLIN_ASSIGN_OR_RETURN(index, ParseCliIndex(*idx));
  }
  lineage::InterestSet interest;
  for (const std::string& focus : args.GetAll("focus")) {
    interest.insert(focus);
  }
  std::string engine_name =
      args.Get("engine") != nullptr ? *args.Get("engine") : "indexproj";
  bool forward = args.Get("forward") != nullptr &&
                 *args.Get("forward") != "false";

  bool explain = args.Get("explain") != nullptr &&
                 *args.Get("explain") != "false";

  // Span capture covers plan build and query execution; Finish() below
  // writes the trace file before the summary lines (and any --stats
  // exposition) print, so output formatting stays out of the trace.
  TraceOutScope trace_scope(args.Get("trace-out"));

  lineage::LineageAnswer answer;
  if (forward) {
    if (engine_name == "naive") {
      lineage::NaiveForwardLineage naive(&store);
      PROVLIN_ASSIGN_OR_RETURN(answer,
                               naive.Query(runs[0], target, index, interest));
    } else {
      PROVLIN_ASSIGN_OR_RETURN(
          lineage::ForwardIndexProjLineage fwd,
          lineage::ForwardIndexProjLineage::Create(loaded.flow, &store));
      PROVLIN_ASSIGN_OR_RETURN(
          answer, fwd.QueryMultiRun(runs, target, index, interest));
    }
  } else {
    // Backward engines are interchangeable behind the LineageEngine
    // interface; the command only picks which one to instantiate.
    lineage::NaiveLineage naive(&store);
    std::optional<lineage::IndexProjLineage> index_proj;
    const lineage::LineageEngine* engine = nullptr;
    if (engine_name == "naive") {
      engine = &naive;
    } else if (engine_name == "indexproj") {
      PROVLIN_ASSIGN_OR_RETURN(
          lineage::IndexProjLineage created,
          lineage::IndexProjLineage::Create(loaded.flow, &store));
      index_proj.emplace(std::move(created));
      engine = &*index_proj;
      if (explain) {
        PROVLIN_ASSIGN_OR_RETURN(
            std::shared_ptr<const lineage::LineagePlan> plan,
            index_proj->Plan(target, index, interest));
        out << "plan (" << plan->queries.size() << " trace queries, "
            << plan->graph_steps << " spec-graph steps):\n";
        for (const auto& tq : plan->queries) {
          out << "  " << tq.ToString(store) << "\n";
        }
      }
    } else {
      return Status::InvalidArgument("unknown engine '" + engine_name +
                                     "' (naive|indexproj)");
    }

    lineage::LineageRequest request;
    request.runs = runs;
    request.target = target;
    request.index = index;
    request.interest = interest;

    if (const std::string* threads = args.Get("threads")) {
      // Batch mode: one request per run, executed concurrently on the
      // service's pool; the shared plan cache keeps s1 to one traversal.
      int64_t n = 0;
      if (!ParseInt64(*threads, &n) || n < 1) {
        return Status::InvalidArgument("bad --threads value '" + *threads +
                                       "'");
      }
      lineage::ServiceOptions options;
      options.num_threads = static_cast<size_t>(n);
      lineage::LineageService service(options);
      std::vector<lineage::ServiceRequest> requests;
      requests.reserve(runs.size());
      for (const std::string& run : runs) {
        requests.push_back(
            {engine, lineage::LineageRequest::SingleRun(run, target, index,
                                                        interest)});
      }
      std::vector<lineage::ServiceResponse> resp =
          service.ExecuteBatch(requests);
      for (const lineage::ServiceResponse& r : resp) {
        PROVLIN_RETURN_IF_ERROR(r.status);
        answer.bindings.insert(answer.bindings.end(),
                               r.answer.bindings.begin(),
                               r.answer.bindings.end());
        answer.timing.t1_ms += r.answer.timing.t1_ms;
        answer.timing.t2_ms += r.answer.timing.t2_ms;
        answer.timing.trace_probes += r.answer.timing.trace_probes;
      }
      lineage::NormalizeBindings(&answer.bindings);
      out << "service: " << service.metrics().ToString() << "\n";
    } else {
      PROVLIN_ASSIGN_OR_RETURN(answer, engine->Query(request));
    }
  }
  trace_scope.Finish();

  out << (forward ? "impact of " : "lineage of ") << target.ToString()
      << index.ToString() << ":\n";
  for (const auto& binding : answer.bindings) {
    out << "  " << binding.ToString() << "\n";
  }
  out << "(" << answer.bindings.size() << " bindings, "
      << answer.timing.trace_probes << " trace probes, t1="
      << answer.timing.t1_ms << "ms t2=" << answer.timing.t2_ms << "ms)\n";
  if (args.Get("stats") != nullptr && *args.Get("stats") != "false") {
    TouchWellKnownInstruments();
    PROVLIN_RETURN_IF_ERROR(DumpStats("prometheus", out));
  }
  return Status::OK();
}

/// `stats --connect HOST:PORT`: scrape a live server's registry (and
/// optionally its tracer ring) over the wire's STATS message instead of
/// dumping this process's counters. The scrape is answered on the
/// scraping connection's own thread, so it works even while every other
/// connection is busy.
Status CmdStatsRemote(const Args& args, const std::string& connect,
                      std::ostream& out) {
  size_t colon = connect.rfind(':');
  int64_t port_n = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64(connect.substr(colon + 1), &port_n) || port_n < 1 ||
      port_n > 65535) {
    return Status::InvalidArgument("bad --connect value '" + connect +
                                   "' (expected HOST:PORT)");
  }
  const std::string host = connect.substr(0, colon);
  const std::string* trace_out = args.Get("trace-out");
  uint8_t want = lineage::wire::kStatsWantMetrics;
  if (trace_out != nullptr) want |= lineage::wire::kStatsWantTrace;

  PROVLIN_ASSIGN_OR_RETURN(
      server::LineageClient client,
      server::LineageClient::Connect(host, static_cast<uint16_t>(port_n)));
  PROVLIN_ASSIGN_OR_RETURN(lineage::wire::StatsResponse response,
                           client.Stats(want));
  std::string format =
      args.Get("format") != nullptr ? *args.Get("format") : "prometheus";
  if (format == "prometheus") {
    out << response.prometheus_text;
  } else if (format == "json") {
    out << response.metrics_json << "\n";
  } else {
    return Status::InvalidArgument("unknown --format '" + format +
                                   "' (prometheus|json)");
  }
  if (trace_out != nullptr) {
    if (!response.has_trace) {
      return Status::FailedPrecondition(
          "server did not return a trace ring (is tracing enabled? serve "
          "--trace true)");
    }
    std::ofstream trace_file(*trace_out);
    if (!trace_file) {
      return Status::IoError("cannot write trace file '" + *trace_out + "'");
    }
    trace_file << response.trace_json;
    out << "# trace: " << response.trace_events << " events ("
        << response.trace_dropped << " dropped) -> " << *trace_out << "\n";
  }
  return Status::OK();
}

Status CmdStats(const Args& args, std::ostream& out) {
  if (const std::string* connect = args.Get("connect")) {
    return CmdStatsRemote(args, *connect, out);
  }
  // Counters cover this process: with --db the exposition reflects the
  // cost of loading the database (inserts, WAL work); most uses are
  // `lineage --stats true` or embedding, where the registry has real
  // query traffic by the time it is dumped.
  if (args.Get("db") != nullptr) {
    PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                             OpenStoreFromArgs(args));
    (void)opened;
  }
  TouchWellKnownInstruments();
  std::string format =
      args.Get("format") != nullptr ? *args.Get("format") : "prometheus";
  PROVLIN_RETURN_IF_ERROR(DumpStats(format, out));
  if (args.Get("reset") != nullptr && *args.Get("reset") != "false") {
    common::metrics::MetricsRegistry::Global().Reset();
  }
  return Status::OK();
}

Status CmdExplain(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "workflow"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "target"));
  std::vector<std::string> runs = args.GetAll("run");
  if (runs.empty()) return Status::InvalidArgument("missing --run");

  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow loaded,
                           LoadWorkflow(*args.Get("workflow")));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  provenance::TraceStore& store = opened.store();
  PROVLIN_ASSIGN_OR_RETURN(workflow::PortRef target,
                           workflow::ParsePortRef(*args.Get("target")));
  Index index;
  if (const std::string* idx = args.Get("index")) {
    PROVLIN_ASSIGN_OR_RETURN(index, ParseCliIndex(*idx));
  }
  lineage::InterestSet interest;
  for (const std::string& focus : args.GetAll("focus")) {
    interest.insert(focus);
  }

  TraceOutScope trace_scope(args.Get("trace-out"));

  PROVLIN_ASSIGN_OR_RETURN(
      lineage::IndexProjLineage engine,
      lineage::IndexProjLineage::Create(loaded.flow, &store));
  lineage::LineageRequest request;
  request.runs = runs;
  request.target = target;
  request.index = index;
  request.interest = interest;
  lineage::ExplainResult explained;
  PROVLIN_ASSIGN_OR_RETURN(lineage::LineageAnswer answer,
                           engine.Explain(request, &explained));
  trace_scope.Finish();
  out << explained.ToString();
  out << "(" << answer.bindings.size() << " bindings, "
      << answer.timing.trace_probes << " trace probes, "
      << answer.timing.trace_descents << " descents)\n";
  return Status::OK();
}

Status CmdSql(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  if (args.positional.empty()) {
    return Status::InvalidArgument("missing SQL statement");
  }
  PROVLIN_ASSIGN_OR_RETURN(storage::Database db, OpenDb(*args.Get("db")));
  PROVLIN_ASSIGN_OR_RETURN(storage::SqlResult result,
                           storage::ExecuteSql(db, args.positional[0]));
  for (size_t i = 0; i < result.columns.size(); ++i) {
    out << (i > 0 ? " | " : "") << result.columns[i];
  }
  out << "\n";
  for (const storage::Row& row : result.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i > 0 ? " | " : "") << row[i].ToString();
    }
    out << "\n";
  }
  out << "(" << result.rows.size() << " rows, "
      << storage::AccessPathName(result.access_path) << ")\n";
  return Status::OK();
}

Status CmdDot(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "run"));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  PROVLIN_ASSIGN_OR_RETURN(
      provenance::ProvenanceGraph graph,
      provenance::ProvenanceGraph::Build(opened.store(), *args.Get("run")));
  out << graph.ToDot(*args.Get("run"));
  return Status::OK();
}

Status CmdExport(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "run"));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  PROVLIN_ASSIGN_OR_RETURN(
      std::string json,
      provenance::ExportOpmJson(opened.store(), *args.Get("run")));
  out << json;
  return Status::OK();
}

Status CmdCounts(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  provenance::TraceCounts counts;
  if (const std::string* run = args.Get("run")) {
    PROVLIN_ASSIGN_OR_RETURN(counts, opened.store().CountRecords(*run));
  } else {
    PROVLIN_ASSIGN_OR_RETURN(counts, opened.store().CountAllRecords());
  }
  out << "xform rows:  " << counts.xform_rows << "\n";
  out << "xfer rows:   " << counts.xfer_rows << "\n";
  out << "value rows:  " << counts.value_rows << "\n";
  out << "dependency records: " << counts.TotalDependencyRecords() << "\n";
  return Status::OK();
}

Status CmdWorkflow(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "workflow"));
  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow loaded,
                           LoadWorkflow(*args.Get("workflow")));
  out << workflow::SerializeDataflow(*loaded.flow);
  PROVLIN_ASSIGN_OR_RETURN(workflow::DepthMap depths,
                           workflow::PropagateDepths(*loaded.flow));
  out << "# port depths (Alg. 1):\n";
  for (const workflow::Processor& proc : loaded.flow->processors()) {
    const workflow::ProcessorDepths& pd = depths.ForProcessor(proc.name);
    out << "#   " << proc.name << ": l=" << pd.iteration_levels << " deltas=";
    for (size_t i = 0; i < pd.input_deltas.size(); ++i) {
      out << (i > 0 ? "," : "") << pd.input_deltas[i];
    }
    out << "\n";
  }
  return Status::OK();
}

Status CmdDiff(const Args& args, std::ostream& out) {
  std::vector<std::string> specs = args.GetAll("workflow");
  if (specs.size() != 2) {
    return Status::InvalidArgument("diff expects two --workflow flags");
  }
  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow before, LoadWorkflow(specs[0]));
  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow after, LoadWorkflow(specs[1]));
  out << workflow::DiffDataflows(*before.flow, *after.flow).ToString();
  return Status::OK();
}

Status CmdPrune(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "run"));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  PROVLIN_ASSIGN_OR_RETURN(size_t removed,
                           opened.store().DeleteRun(*args.Get("run")));
  PROVLIN_RETURN_IF_ERROR(opened.Save());
  out << "pruned run '" << *args.Get("run") << "' (" << removed
      << " rows)\n";
  return Status::OK();
}

/// Parses a non-negative integer flag into `*value`; absent leaves the
/// default in place.
Status ParseSizeFlag(const Args& args, const char* flag, size_t* value) {
  const std::string* text = args.Get(flag);
  if (text == nullptr) return Status::OK();
  int64_t n = 0;
  if (!ParseInt64(*text, &n) || n < 1) {
    return Status::InvalidArgument(std::string("bad --") + flag + " value '" +
                                   *text + "'");
  }
  *value = static_cast<size_t>(n);
  return Status::OK();
}

Status CmdServe(const Args& args, std::ostream& out) {
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "workflow"));
  PROVLIN_RETURN_IF_ERROR(RequireFlag(args, "db"));
  PROVLIN_ASSIGN_OR_RETURN(LoadedWorkflow loaded,
                           LoadWorkflow(*args.Get("workflow")));
  PROVLIN_ASSIGN_OR_RETURN(provenance::OpenedStore opened,
                           OpenStoreFromArgs(args));
  provenance::TraceStore& store = opened.store();

  // Both engines are served; the wire request picks one by name.
  lineage::NaiveLineage naive(&store);
  PROVLIN_ASSIGN_OR_RETURN(
      lineage::IndexProjLineage index_proj,
      lineage::IndexProjLineage::Create(loaded.flow, &store));
  server::LineageServer::EngineMap engines;
  engines["naive"] = &naive;
  engines["indexproj"] = &index_proj;

  server::ServerOptions options;
  if (const std::string* port = args.Get("port")) {
    int64_t n = 0;
    if (!ParseInt64(*port, &n) || n < 0 || n > 65535) {
      return Status::InvalidArgument("bad --port value '" + *port + "'");
    }
    options.port = static_cast<uint16_t>(n);
  }
  PROVLIN_RETURN_IF_ERROR(ParseSizeFlag(args, "max-connections",
                                        &options.max_connections));
  if (const std::string* slow = args.Get("slow-request-ms")) {
    double ms = 0.0;
    if (!ParseDouble(*slow, &ms) || ms < 0.0) {
      return Status::InvalidArgument("bad --slow-request-ms value '" + *slow +
                                     "' (non-negative ms; 0 logs everything)");
    }
    options.slow_request_ms = ms;
  }
  if (const std::string* path = args.Get("slow-log")) {
    options.slow_log_path = *path;
  }
  if (const std::string* cap = args.Get("slow-log-max-bytes")) {
    int64_t n = 0;
    if (!ParseInt64(*cap, &n) || n < 1) {
      return Status::InvalidArgument("bad --slow-log-max-bytes value '" +
                                     *cap + "'");
    }
    options.slow_log_max_bytes = static_cast<uint64_t>(n);
  }
  // --trace true turns the in-process tracer ring on for the server's
  // lifetime so `provlin stats --connect HOST:PORT --trace-out FILE`
  // can scrape span data from a live process.
  if (args.Get("trace") != nullptr && *args.Get("trace") != "false") {
    common::tracing::Tracer::Global().Enable();
  }

  // Block the shutdown signals before Start() so every server thread
  // inherits the mask and only the sigwait below receives them.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  server::LineageServer server(std::move(engines), options);
  PROVLIN_RETURN_IF_ERROR(server.Start());
  out << "serving lineage on 127.0.0.1:" << server.port() << " (at most "
      << options.max_connections << " connections)\n";
  out.flush();
  // --port-file is how scripts and CI find an ephemeral --port 0: the
  // file appears only once the server is accepting.
  if (const std::string* port_file = args.Get("port-file")) {
    std::ofstream pf(*port_file);
    if (!pf) {
      server.Stop();
      return Status::IoError("cannot write port file '" + *port_file + "'");
    }
    pf << server.port() << "\n";
  }

  int sig = 0;
  sigwait(&mask, &sig);
  out << "caught " << (sig == SIGINT ? "SIGINT" : "SIGTERM")
      << ", shutting down\n";
  server.Stop();

  // This process served only this server, so the registry's server/*
  // totals are its counts.
  const common::metrics::MetricsSnapshot snap =
      common::metrics::MetricsRegistry::Global().Snapshot();
  out << "served " << snap.counter("server/responses_ok") << " ok, "
      << snap.counter("server/responses_error") << " error over "
      << snap.counter("server/connections_accepted") << " connections ("
      << snap.counter("server/connections_rejected") << " rejected, "
      << snap.counter("server/bad_frames") << " bad frames, "
      << snap.counter("server/stats_requests") << " stats scrapes)\n";
  if (uint64_t logged = snap.counter("server/slow_requests_logged");
      logged > 0) {
    out << "slow-request log: " << logged << " records -> "
        << options.slow_log_path << "\n";
  }
  if (args.Get("stats") != nullptr && *args.Get("stats") != "false") {
    TouchWellKnownInstruments();
    PROVLIN_RETURN_IF_ERROR(DumpStats("prometheus", out));
  }
  return Status::OK();
}

const char* kUsage =
    "usage: provlin <command> [flags]\n"
    "commands: run, runs, lineage, explain, serve, stats, sql, dot, export,\n"
    "          counts, workflow, diff, prune\n"
    "see src/cli/cli.h for full flag documentation\n";

}  // namespace

int RunCli(const std::vector<std::string>& argv, std::ostream& out,
           std::ostream& err) {
  auto args = ParseArgs(argv);
  if (!args.ok()) {
    err << args.status().ToString() << "\n" << kUsage;
    return 2;
  }
  Status st;
  if (args->command == "run") {
    st = CmdRun(*args, out);
  } else if (args->command == "runs") {
    st = CmdRuns(*args, out);
  } else if (args->command == "lineage") {
    st = CmdLineage(*args, out);
  } else if (args->command == "explain") {
    st = CmdExplain(*args, out);
  } else if (args->command == "serve") {
    st = CmdServe(*args, out);
  } else if (args->command == "stats") {
    st = CmdStats(*args, out);
  } else if (args->command == "sql") {
    st = CmdSql(*args, out);
  } else if (args->command == "dot") {
    st = CmdDot(*args, out);
  } else if (args->command == "export") {
    st = CmdExport(*args, out);
  } else if (args->command == "counts") {
    st = CmdCounts(*args, out);
  } else if (args->command == "workflow") {
    st = CmdWorkflow(*args, out);
  } else if (args->command == "diff") {
    st = CmdDiff(*args, out);
  } else if (args->command == "prune") {
    st = CmdPrune(*args, out);
  } else if (args->command == "help" || args->command == "--help") {
    out << kUsage;
    return 0;
  } else {
    err << "unknown command '" << args->command << "'\n" << kUsage;
    return 2;
  }
  if (!st.ok()) {
    err << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace provlin::cli

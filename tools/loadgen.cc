// Open-loop load generator for the lineage server (`provlin serve`).
//
// Replays a configurable request mix at a target aggregate rate over N
// concurrent connections. Each connection runs a sender thread that
// fires requests on the intended schedule — never waiting for responses
// — and a receiver thread that drains response frames and measures
// latency from the *intended* send time, so queueing delay in the
// client cannot hide server-side slowness (no coordinated omission).
//
// Latencies feed the process metrics registry ("loadgen/latency_ms")
// and the run summary — p50/p95/p99 + throughput — is printed and
// written as BENCH_served.json (PROVLIN_BENCH_JSON_DIR, same convention
// as the figure benches; validated by tools/check_served_json.py).
//
// Usage:
//   loadgen --port-file /tmp/port [--host 127.0.0.1] [--connections 4]
//           [--rate 200] [--duration-s 3 | --requests N]
//           [--engine naive|indexproj|mix] [--timelines true]
//           [--run r0]* [--target P:X]* [--index 1,2]* [--focus P]*
//
// --timelines true sets the want-timeline flag, asking the server to attach
// its per-phase RequestTimeline to every answer; the phases aggregate
// into loadgen/timeline_* histograms and a "timeline" block (per-phase
// mean/p50/p95/p99) in BENCH_served.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "lineage/engine.h"
#include "lineage/wire.h"
#include "server/client.h"
#include "workflow/builder.h"

namespace provlin {
namespace {

namespace wire = lineage::wire;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string port_file;
  size_t connections = 4;
  double rate = 200.0;  // aggregate requests/second across connections
  double duration_s = 3.0;
  size_t requests = 0;  // 0 = derive from rate * duration
  std::string engine = "indexproj";
  bool timelines = false;
  std::vector<std::string> runs;
  std::vector<std::string> targets;
  std::vector<std::string> indexes;
  std::vector<std::string> focus;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "loadgen: %s\n", message.c_str());
  std::exit(1);
}

/// 1-based "1,2" index, same notation as the provlin CLI.
Index ParseIndexArg(const std::string& text) {
  std::string_view t = Trim(text);
  if (!t.empty() && t.front() == '[') t = t.substr(1);
  if (!t.empty() && t.back() == ']') t = t.substr(0, t.size() - 1);
  if (Trim(t).empty()) return Index();
  std::vector<int32_t> parts;
  for (const std::string& tok : Split(t, ',')) {
    int64_t v = 0;
    if (!ParseInt64(std::string(Trim(tok)), &v) || v < 1) {
      Die("bad index component '" + tok + "' (indices are 1-based)");
    }
    parts.push_back(static_cast<int32_t>(v - 1));
  }
  return Index(std::move(parts));
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::vector<std::string>> flags;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (!StartsWith(a, "--") || i + 1 >= argc) {
      Die("expected --flag value pairs, got '" + a + "'");
    }
    flags[a.substr(2)].push_back(argv[++i]);
  }
  auto get = [&](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second.front();
  };
  auto get_int = [&](const char* name, int64_t lo, int64_t hi,
                     int64_t fallback) {
    const std::string* s = get(name);
    if (s == nullptr) return fallback;
    int64_t n = 0;
    if (!ParseInt64(*s, &n) || n < lo || n > hi) {
      Die(std::string("bad --") + name + " value '" + *s + "'");
    }
    return n;
  };
  if (const std::string* s = get("host")) opt.host = *s;
  opt.port = static_cast<uint16_t>(get_int("port", 0, 65535, 0));
  if (const std::string* s = get("port-file")) opt.port_file = *s;
  opt.connections =
      static_cast<size_t>(get_int("connections", 1, 4096, 4));
  opt.rate = static_cast<double>(get_int("rate", 1, 10000000, 200));
  opt.duration_s =
      static_cast<double>(get_int("duration-s", 1, 86400, 3));
  opt.requests = static_cast<size_t>(get_int("requests", 1, 100000000,
                                             0));
  if (const std::string* s = get("engine")) opt.engine = *s;
  if (const std::string* s = get("timelines")) opt.timelines = *s != "false";
  if (opt.engine != "naive" && opt.engine != "indexproj" &&
      opt.engine != "mix") {
    Die("--engine must be naive, indexproj, or mix");
  }
  opt.runs = flags.count("run") ? flags["run"] : std::vector<std::string>{};
  opt.targets = flags.count("target") ? flags["target"]
                                      : std::vector<std::string>{};
  opt.indexes = flags.count("index") ? flags["index"]
                                     : std::vector<std::string>{};
  opt.focus = flags.count("focus") ? flags["focus"]
                                   : std::vector<std::string>{};
  if (opt.runs.empty()) Die("at least one --run is required");
  if (opt.targets.empty()) Die("at least one --target is required");
  return opt;
}

uint16_t ResolvePort(const Options& opt) {
  if (opt.port != 0) return opt.port;
  if (opt.port_file.empty()) Die("one of --port / --port-file is required");
  // The server writes the port file only once it is accepting; poll
  // briefly so loadgen can be launched in parallel with `serve`.
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::ifstream in(opt.port_file);
    int64_t port = 0;
    if (in) {
      std::string text;
      in >> text;
      if (ParseInt64(text, &port) && port > 0 && port <= 65535) {
        return static_cast<uint16_t>(port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Die("port file '" + opt.port_file + "' did not appear");
}

/// The cycled request mix: request k uses mix[k % mix.size()].
std::vector<lineage::LineageRequest> BuildMix(const Options& opt) {
  std::vector<workflow::PortRef> targets;
  for (const std::string& t : opt.targets) {
    auto ref = workflow::ParsePortRef(t);
    if (!ref.ok()) Die("bad --target: " + ref.status().ToString());
    targets.push_back(std::move(*ref));
  }
  std::vector<Index> indexes;
  for (const std::string& ix : opt.indexes) {
    indexes.push_back(ParseIndexArg(ix));
  }
  if (indexes.empty()) indexes.push_back(Index());
  lineage::InterestSet interest(opt.focus.begin(), opt.focus.end());

  size_t mix_size = std::max(
      opt.runs.size(), std::max(targets.size(), indexes.size()));
  std::vector<lineage::LineageRequest> mix;
  mix.reserve(mix_size);
  for (size_t i = 0; i < mix_size; ++i) {
    mix.push_back(lineage::LineageRequest::SingleRun(
        opt.runs[i % opt.runs.size()], targets[i % targets.size()],
        indexes[i % indexes.size()], interest));
  }
  return mix;
}

struct Totals {
  common::metrics::Counter* sent;
  common::metrics::Counter* ok;
  common::metrics::Counter* overloaded;
  common::metrics::Counter* errors;
  common::metrics::Histogram* latency_ms;
  /// Server-reported phase timelines (filled only under --timelines).
  common::metrics::Histogram* timeline_queue_ms;
  common::metrics::Histogram* timeline_dispatch_ms;
  common::metrics::Histogram* timeline_execute_ms;
  common::metrics::Histogram* timeline_total_ms;
};

Totals& Counters() {
  static Totals t = {
      common::metrics::GetCounter("loadgen/sent"),
      common::metrics::GetCounter("loadgen/ok"),
      common::metrics::GetCounter("loadgen/overloaded"),
      common::metrics::GetCounter("loadgen/errors"),
      common::metrics::GetHistogram("loadgen/latency_ms"),
      common::metrics::GetHistogram("loadgen/timeline_queue_ms"),
      common::metrics::GetHistogram("loadgen/timeline_dispatch_ms"),
      common::metrics::GetHistogram("loadgen/timeline_execute_ms"),
      common::metrics::GetHistogram("loadgen/timeline_total_ms"),
  };
  return t;
}

/// One connection: the shared socket client plus the sender→receiver
/// handoff of intended send times (open-loop latency basis).
struct Conn {
  explicit Conn(server::LineageClient client_in)
      : client(std::move(client_in)) {}

  server::LineageClient client;
  common::Mutex mu{common::LockRank::kLoadgenConn};
  /// request id → intended send offset from t0, microseconds.
  std::unordered_map<uint64_t, int64_t> intended GUARDED_BY(mu);
};

void SenderLoop(Conn* conn, const std::vector<lineage::LineageRequest>& mix,
                const std::vector<std::string>& engines, size_t conn_index,
                size_t connections, size_t total_requests, double rate,
                bool timelines, Clock::time_point t0) {
  for (size_t k = conn_index; k < total_requests; k += connections) {
    int64_t intended_us =
        static_cast<int64_t>(static_cast<double>(k) * 1e6 / rate);
    std::this_thread::sleep_until(t0 + std::chrono::microseconds(intended_us));
    const lineage::LineageRequest& req = mix[k % mix.size()];
    const std::string& engine = engines[k % engines.size()];
    // Register the intended time before the frame hits the wire: the
    // response can arrive on the receiver thread before Send() returns.
    uint64_t id = conn->client.next_request_id();
    {
      common::MutexLock lock(conn->mu);
      conn->intended.emplace(id, intended_us);
    }
    Result<uint64_t> sent = conn->client.Send(engine, req, timelines);
    if (!sent.ok()) {
      // Connection-level failure: everything this sender still owed is
      // accounted as an error by the receiver when the stream dies.
      common::MutexLock lock(conn->mu);
      conn->intended.erase(id);
      Counters().errors->Increment();
      return;
    }
    Counters().sent->Increment();
  }
}

void ReceiverLoop(Conn* conn, size_t expected, Clock::time_point t0) {
  for (size_t i = 0; i < expected; ++i) {
    Result<wire::ResponseEnvelope> response = conn->client.Receive();
    int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - t0)
                         .count();
    if (!response.ok()) {
      // EOF or framing failure: the rest of this connection's window
      // will never be answered.
      for (size_t j = i; j < expected; ++j) Counters().errors->Increment();
      return;
    }
    int64_t intended_us = -1;
    {
      common::MutexLock lock(conn->mu);
      auto it = conn->intended.find(response->request_id);
      if (it != conn->intended.end()) {
        intended_us = it->second;
        conn->intended.erase(it);
      }
    }
    if (intended_us >= 0) {
      Counters().latency_ms->Observe(
          static_cast<double>(now_us - intended_us) / 1000.0);
    }
    if (response->ok) {
      Counters().ok->Increment();
      if (response->has_timeline) {
        const wire::RequestTimeline& tl = response->timeline;
        Counters().timeline_queue_ms->Observe(tl.queue_ms);
        Counters().timeline_dispatch_ms->Observe(tl.dispatch_ms);
        Counters().timeline_execute_ms->Observe(tl.execute_ms);
        Counters().timeline_total_ms->Observe(tl.total_ms);
      }
    } else if (response->code == wire::ErrorCode::kOverloaded) {
      Counters().overloaded->Increment();
    } else {
      Counters().errors->Increment();
    }
  }
}

void WriteJson(const Options& opt, size_t total_requests, double duration_s,
               double throughput) {
  const Totals& t = Counters();
  common::metrics::HistogramSnapshot lat = t.latency_ms->Snapshot();
  std::string dir = ".";
  if (const char* env = std::getenv("PROVLIN_BENCH_JSON_DIR")) dir = env;
  std::string path = dir + "/BENCH_served.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"served\",\n"
               "  \"config\": {\"connections\": %zu, \"rate\": %.1f, "
               "\"requests\": %zu, \"engine\": \"%s\"},\n",
               opt.connections, opt.rate, total_requests,
               opt.engine.c_str());
  std::fprintf(f,
               "  \"sent\": %llu,\n  \"ok\": %llu,\n"
               "  \"overloaded\": %llu,\n  \"errors\": %llu,\n",
               static_cast<unsigned long long>(t.sent->Value()),
               static_cast<unsigned long long>(t.ok->Value()),
               static_cast<unsigned long long>(t.overloaded->Value()),
               static_cast<unsigned long long>(t.errors->Value()));
  std::fprintf(f,
               "  \"duration_s\": %.3f,\n  \"throughput_rps\": %.1f,\n"
               "  \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f},\n",
               duration_s, throughput, lat.Percentile(0.50),
               lat.Percentile(0.95), lat.Percentile(0.99));
  if (opt.timelines) {
    // Server-side phase breakdown, aggregated across every answer that
    // carried a timeline. Validated by tools/check_served_json.py:
    // percentiles must be monotone and phase medians must not exceed
    // the client-observed request latency.
    auto phase = [&](const char* name, common::metrics::Histogram* h,
                     const char* trailer) {
      common::metrics::HistogramSnapshot s = h->Snapshot();
      double mean = s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0;
      std::fprintf(f,
                   "    \"%s\": {\"count\": %llu, \"mean\": %.3f, "
                   "\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}%s\n",
                   name, static_cast<unsigned long long>(s.count), mean,
                   s.Percentile(0.50), s.Percentile(0.95), s.Percentile(0.99),
                   trailer);
    };
    const Totals& tt = Counters();
    std::fprintf(f, "  \"timeline\": {\n");
    phase("queue_ms", tt.timeline_queue_ms, ",");
    phase("dispatch_ms", tt.timeline_dispatch_ms, ",");
    phase("execute_ms", tt.timeline_execute_ms, ",");
    phase("total_ms", tt.timeline_total_ms, "");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"metrics\": %s\n}\n",
               common::metrics::MetricsRegistry::Global()
                   .Snapshot()
                   .ToJson(2)
                   .c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  Options opt = ParseOptions(argc, argv);
  uint16_t port = ResolvePort(opt);
  std::vector<lineage::LineageRequest> mix = BuildMix(opt);
  std::vector<std::string> engines;
  if (opt.engine == "mix") {
    engines = {"naive", "indexproj"};
  } else {
    engines = {opt.engine};
  }

  size_t total_requests = opt.requests != 0
                              ? opt.requests
                              : static_cast<size_t>(opt.rate *
                                                    opt.duration_s);
  if (total_requests == 0) Die("nothing to send");

  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < opt.connections; ++c) {
    auto client = server::LineageClient::Connect(opt.host, port);
    if (!client.ok()) {
      Die("connect to " + opt.host + ":" + std::to_string(port) + ": " +
          client.status().ToString());
    }
    conns.push_back(std::make_unique<Conn>(std::move(*client)));
  }

  std::printf(
      "loadgen: %zu requests at %.0f req/s over %zu connections "
      "(engine %s, mix of %zu)\n",
      total_requests, opt.rate, opt.connections, opt.engine.c_str(),
      mix.size());

  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < opt.connections; ++c) {
    // Requests are striped over connections: connection c owns every
    // request k with k % connections == c.
    size_t expected = total_requests / opt.connections +
                      (c < total_requests % opt.connections ? 1 : 0);
    Conn* conn = conns[c].get();
    threads.emplace_back([conn, &mix, &engines, c, &opt, total_requests,
                          t0] {
      SenderLoop(conn, mix, engines, c, opt.connections, total_requests,
                 opt.rate, opt.timelines, t0);
    });
    threads.emplace_back(
        [conn, expected, t0] { ReceiverLoop(conn, expected, t0); });
  }
  for (std::thread& t : threads) t.join();
  double duration_s =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count()) /
      1e6;

  const Totals& totals = Counters();
  uint64_t answered = totals.ok->Value() + totals.overloaded->Value() +
                      totals.errors->Value();
  double throughput =
      duration_s > 0 ? static_cast<double>(answered) / duration_s : 0.0;
  common::metrics::HistogramSnapshot lat = totals.latency_ms->Snapshot();
  std::printf(
      "sent %llu  ok %llu  overloaded %llu  errors %llu  in %.2fs "
      "(%.1f rsp/s)\n",
      static_cast<unsigned long long>(totals.sent->Value()),
      static_cast<unsigned long long>(totals.ok->Value()),
      static_cast<unsigned long long>(totals.overloaded->Value()),
      static_cast<unsigned long long>(totals.errors->Value()), duration_s,
      throughput);
  std::printf("latency p50 %.3fms  p95 %.3fms  p99 %.3fms (%llu samples)\n",
              lat.Percentile(0.50), lat.Percentile(0.95),
              lat.Percentile(0.99),
              static_cast<unsigned long long>(lat.count));
  if (opt.timelines) {
    common::metrics::HistogramSnapshot q =
        totals.timeline_queue_ms->Snapshot();
    common::metrics::HistogramSnapshot d =
        totals.timeline_dispatch_ms->Snapshot();
    common::metrics::HistogramSnapshot e =
        totals.timeline_execute_ms->Snapshot();
    common::metrics::HistogramSnapshot tot =
        totals.timeline_total_ms->Snapshot();
    std::printf(
        "timeline p50 queue %.3fms  dispatch %.3fms  execute %.3fms  "
        "total %.3fms (%llu timelines)\n",
        q.Percentile(0.50), d.Percentile(0.50), e.Percentile(0.50),
        tot.Percentile(0.50), static_cast<unsigned long long>(tot.count));
  }
  WriteJson(opt, total_requests, duration_s, throughput);
  return totals.ok->Value() > 0 ? 0 : 1;
}

}  // namespace
}  // namespace provlin

int main(int argc, char** argv) { return provlin::Run(argc, argv); }

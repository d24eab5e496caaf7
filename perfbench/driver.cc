// One run of one benchmark workload (see README.md in this directory).
//
//   perfbench_driver --workload focused|archive|capture --seed N
//       --seconds S --trace 0|1 --provlin PATH --dir DIR
//       [--spans-out FILE] [--smoke 1]
//
// Every workload drives both sides of provlin. It builds the workload's
// served image, captures a seeded series of runs into a copy of it
// (write side), then starts `provlin serve` on the image and replays a
// seeded open-loop request stream over loopback (read side). Every
// served answer is checked against the in-process engine on the same
// image. The last line on stdout is the JSON result; with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer metrics of
// a separate traced run. Any failed check exits 1 with a one-line
// reason on stderr.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/builtin_activities.h"
#include "engine/executor.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "lineage/service.h"
#include "lineage/wire.h"
#include "openloop.h"
#include "provenance/recorder.h"
#include "provenance/store_open.h"
#include "provenance/trace_store.h"
#include "spans.h"
#include "testbed/synthetic.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace lineage = provlin::lineage;
namespace provenance = provlin::provenance;
namespace wire = provlin::lineage::wire;
namespace testbed = provlin::testbed;
using provlin::Index;
using provlin::Value;
using Clock = std::chrono::steady_clock;

constexpr size_t kShards = 4;
constexpr size_t kConnections = 4;
// Measured rounds per run (see Main).
constexpr size_t kRounds = 8;
// Captured runs: chain length 10, list sizes 2..8 in a seeded order.
constexpr int kCaptureL = 10;
constexpr int kCaptureDLo = 2;
constexpr int kCaptureDHi = 8;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double MsSince(Clock::time_point t) { return SecondsSince(t) * 1e3; }

template <typename T>
T Must(provlin::Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().ToString());
  return std::move(r).value();
}
void Must(const provlin::Status& st, const std::string& what) {
  if (!st.ok()) throw BenchError(what + ": " + st.ToString());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The latency percentile every phase reports: the samples, in the
/// order they were due, are cut into up to 7 consecutive windows that
/// each hold at least 10/(1-q) samples (ten beyond the percentile), and
/// the result is the median of the windows' exact percentiles. With
/// fewer than three such windows it is the exact percentile of all
/// samples. One host preemption then moves one window, not the result.
double WindowedPercentile(const std::vector<double>& samples, double q) {
  const size_t n = samples.size();
  const size_t min_window = static_cast<size_t>(std::ceil(10.0 / (1.0 - q)));
  const size_t windows = std::min<size_t>(7, n / std::max<size_t>(min_window, 1));
  if (windows < 3) return Percentile(samples, q);
  std::vector<double> per;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = samples.begin() + static_cast<long>(w * n / windows);
    auto end = samples.begin() + static_cast<long>((w + 1) * n / windows);
    per.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Percentile(per, 0.5);
}
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host reference: the time of a fixed piece of single-threaded CPU
/// work (sorting the same 2^18 pseudo-random integers), the fastest of
/// three tries. Printed once per round and never gated: on a shared VM
/// it tells a host that changed speed within a run or a set of runs
/// from a change in provlin.
double HostReferenceMs() {
  std::mt19937_64 rng(20100322);
  std::vector<uint64_t> data(1u << 18);
  for (uint64_t& x : data) x = rng();
  double best = kInf;
  for (int i = 0; i < 3; ++i) {
    std::vector<uint64_t> v = data;
    Clock::time_point t = Clock::now();
    std::sort(v.begin(), v.end());
    best = std::min(best, MsSince(t));
    if (v.front() > v.back()) throw BenchError("host reference: sort failed");
  }
  return best;
}

// --- workloads ---------------------------------------------------------------

enum class Mix { kFocused, kArchive };

/// Everything that differs between workloads. Rates are requests per
/// second; shares split --seconds between the measured phases.
struct Spec {
  std::string name;
  // Served image: `image_runs` synthetic runs (chain length l, list
  // size d) on kShards shards, written under `compress`.
  int image_runs = 0;
  int image_l = 0;
  int image_d = 0;
  provenance::CompressMode compress = provenance::CompressMode::kOff;
  std::string compress_flag;
  // Request mix.
  Mix mix = Mix::kFocused;
  double heavy_share = 0.0;
  int multirun_runs = 4;
  // Open loop. The ladder is peak_rps * 2^(k/8); rung 0 is the peak
  // phase itself.
  double nominal_rps = 0;
  double peak_rps = 0;
  int ladder_min_k = -16;
  int ladder_max_k = 24;
  double p99_limit_ms = 0;
  // Capture phase: this many synthetic runs (see kCaptureL).
  int capture_runs = 0;
  // Shares of --seconds.
  double nominal_share = 0;
  double peak_share = 0;
  int setup_spawns = 5;
};

Spec MakeSpec(const std::string& workload, double seconds, bool smoke) {
  Spec s;
  s.name = workload;
  if (workload == "focused") {
    s.image_runs = 16;
    s.image_l = 40;
    s.image_d = 20;
    s.compress = provenance::CompressMode::kOff;
    s.compress_flag = "off";
    s.mix = Mix::kFocused;
    s.nominal_rps = 2000;
    s.peak_rps = 6000;
    s.p99_limit_ms = 50;
    s.capture_runs = 1000;
    s.nominal_share = 0.35;
    s.peak_share = 0.2;
  } else if (workload == "archive") {
    s.image_runs = 64;
    s.image_l = 40;
    s.image_d = 20;
    s.compress = provenance::CompressMode::kSeal;
    s.compress_flag = "seal";
    s.mix = Mix::kArchive;
    s.heavy_share = 0.1;
    s.multirun_runs = 16;
    s.nominal_rps = 150;
    s.peak_rps = 250;
    s.p99_limit_ms = 100;
    s.capture_runs = 1000;
    s.nominal_share = 0.4;
    s.peak_share = 0.2;
  } else if (workload == "capture") {
    // The image the runs are captured into: 64 sealed runs, as many as
    // `archive` reads, of the captured workflow (l=10) at the top of the
    // captured list sizes (d=8). Served with the `focused` mix, this
    // image saturates the server's dispatcher near 4800 req/s (p50 0.2
    // ms at 4000 req/s, 1.2-1.6 ms at 4757, collapse at 5658). The rates
    // are the fractions of saturation `focused` serves at (2000 and 6000
    // of ~16000 req/s): 1/8 and 3/8, so the server stays light.
    s.image_runs = 64;
    s.image_l = kCaptureL;
    s.image_d = kCaptureDHi;
    s.compress = provenance::CompressMode::kSeal;
    s.compress_flag = "seal";
    s.mix = Mix::kFocused;
    s.nominal_rps = 600;
    s.peak_rps = 1800;
    s.p99_limit_ms = 50;
    s.capture_runs = 2400;
    s.nominal_share = 0.2;
    s.peak_share = 0.1;
  } else {
    throw BenchError("unknown workload '" + workload +
                     "' (focused|archive|capture)");
  }
  // The capture phase is sized in runs, not seconds, so its byte counts
  // are exact for a seed; --seconds scales it linearly around 20 s.
  s.capture_runs = std::max(
      1000, static_cast<int>(std::lround(s.capture_runs * seconds / 20.0)));
  if (smoke) {
    s.image_runs = 4;
    s.image_l = 6;
    s.image_d = 5;
    s.multirun_runs = 2;
    s.nominal_rps = std::min(s.nominal_rps, 200.0);
    s.peak_rps = std::min(s.peak_rps, 400.0);
    s.ladder_min_k = -2;
    s.ladder_max_k = 2;
    s.capture_runs = 40;
    s.setup_spawns = 2;
  }
  return s;
}

// --- fixtures ---------------------------------------------------------------

struct Workflow {
  std::shared_ptr<const provlin::workflow::Dataflow> flow;
  provlin::engine::ActivityRegistry registry;
};

std::unique_ptr<Workflow> LoadSynthetic(int l) {
  auto wf = std::make_unique<Workflow>();
  wf->flow = Must(testbed::MakeSyntheticWorkflow(l), "synthetic workflow");
  provlin::engine::RegisterBuiltinActivities(&wf->registry);
  return wf;
}

provenance::StoreOptions ImageOptions(const Spec& spec,
                                      const std::string& path) {
  provenance::StoreOptions o;
  o.db_path = path;
  o.shards = kShards;
  o.compress = spec.compress;
  return o;
}

/// Rows a synthetic run of chain length l and list size d writes
/// (Table 1 closed form; DESIGN.md §5).
size_t ClosedFormRows(int l, int d) {
  return static_cast<size_t>(4 * d * l + 2 * d * d + 6);
}

std::string RunId(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%05d", prefix, i);
  return buf;
}

/// Executes one captured run; returns false when the run failed.
bool ExecuteRun(const Workflow& wf, provenance::TraceStore* store,
                const std::string& run, int d) {
  provenance::TraceRecorder recorder(store);
  provlin::engine::Executor executor(&wf.registry, &recorder);
  std::map<std::string, Value> inputs{{"ListSize", testbed::SyntheticInput(d)}};
  auto result = executor.Execute(*wf.flow, inputs, run);
  return result.ok() && recorder.status().ok();
}

void BuildImage(const Spec& spec, const Workflow& wf, const std::string& path) {
  provenance::OpenedStore opened =
      Must(provenance::OpenStore(ImageOptions(spec, path)), "create image");
  for (int i = 0; i < spec.image_runs; ++i) {
    if (!ExecuteRun(wf, &opened.store(), RunId("r", i), spec.image_d)) {
      throw BenchError("fixture run " + RunId("r", i) + " failed");
    }
  }
  Must(opened.Save(), "save image");
}

// --- requests ---------------------------------------------------------------

enum Cls : int { kFocusedCls = 0, kMultiRunCls = 1, kUnfocusedCls = 2 };
const char* kClsNames[] = {"focused", "multirun", "unfocused"};

struct Query {
  lineage::LineageRequest req;
  int cls = kFocusedCls;
  std::string key;
};

std::string KeyOf(const lineage::LineageRequest& r) {
  std::string k = r.ToString() + " P{";
  for (const std::string& p : r.interest) k += p + ",";
  return k + "}";
}

/// Seeded request stream of one workload. `focused` mixes draw from a
/// few hundred (index, 𝒫) keys whose plans all fit the cache; the
/// `archive` mix draws indexes over all d×d and 𝒫 from a wide family,
/// and sends a share of heavy multi-run and unfocused requests.
class QueryGen {
 public:
  QueryGen(const Spec& spec, uint64_t seed) : spec_(spec), rng_(seed) {
    const int l = spec.image_l;
    family_ = {testbed::kListGen, "workflow"};
    for (int k = 1; k <= l; ++k) {
      family_.push_back(testbed::ChainAProc(k));
      family_.push_back(testbed::ChainBProc(k));
    }
    auto a = [](int k) { return testbed::ChainAProc(std::max(1, k)); };
    auto b = [](int k) { return testbed::ChainBProc(std::max(1, k)); };
    fixed_ = {{testbed::kListGen},
              {"workflow"},
              {a(1)},
              {b(1)},
              {a(l / 2), b(l / 2)},
              {testbed::kListGen, a(l)},
              {a(l / 4), b(3 * l / 4), testbed::kListGen},
              {a(l / 8 + 1), b(l / 8 + 1)}};
    const int d = spec.image_d;
    for (int g = 0; g < 6; ++g) grid_.push_back(g * (d - 1) / 5);
  }

  Query Next() {
    if (spec_.mix == Mix::kArchive && Uniform() < spec_.heavy_share) {
      return Make(Uniform() < 0.5 ? kMultiRunCls : kUnfocusedCls);
    }
    return Make(kFocusedCls);
  }

  Query Make(int cls) {
    Query q;
    q.cls = cls;
    q.req.target = {"workflow", "RESULT"};
    if (spec_.mix == Mix::kFocused) {
      q.req.index = Index({grid_[Pick(grid_.size())], grid_[Pick(grid_.size())]});
      q.req.interest = fixed_[Pick(fixed_.size())];
    } else {
      q.req.index = Index({static_cast<int32_t>(Pick(spec_.image_d)),
                           static_cast<int32_t>(Pick(spec_.image_d))});
      size_t np = 1 + Pick(3);
      while (q.req.interest.size() < np) {
        q.req.interest.insert(family_[Pick(family_.size())]);
      }
    }
    if (cls == kUnfocusedCls) q.req.interest.clear();
    if (cls == kMultiRunCls) {
      std::set<int> runs;
      size_t want = static_cast<size_t>(
          std::min(spec_.multirun_runs, spec_.image_runs));
      while (runs.size() < want) runs.insert(static_cast<int>(Pick(spec_.image_runs)));
      for (int r : runs) q.req.runs.push_back(RunId("r", r));
    } else {
      q.req.runs.push_back(RunId("r", static_cast<int>(Pick(spec_.image_runs))));
    }
    q.key = KeyOf(q.req);
    return q;
  }

  std::vector<Query> Stream(size_t n) {
    std::vector<Query> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(Next());
    return out;
  }

 private:
  double Uniform() { return std::uniform_real_distribution<double>(0, 1)(rng_); }
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  size_t Pick(int n) { return Pick(static_cast<size_t>(n)); }

  const Spec& spec_;
  std::mt19937_64 rng_;
  std::vector<std::string> family_;
  std::vector<lineage::InterestSet> fixed_;
  std::vector<int32_t> grid_;
};

uint64_t AnswerHash(const lineage::LineageAnswer& a) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0xff) * 1099511628211ull;
  };
  for (const lineage::LineageBinding& b : a.bindings) {
    mix(b.run_id);
    mix(b.port.processor);
    mix(b.port.port);
    mix(b.index.ToString());
    mix(b.value_repr);
  }
  mix(std::to_string(a.bindings.size()));
  return h;
}

// --- in-process oracle --------------------------------------------------------

/// The served image opened in-process with the server's options: the
/// reference every served answer is checked against, and the subject of
/// the traced layer replay.
struct Oracle {
  std::optional<provenance::OpenedStore> opened;
  std::optional<lineage::IndexProjLineage> engine;
  std::unordered_map<std::string, uint64_t> expected;
  double open_s = 0;

  Oracle(const Spec& spec, const Workflow& wf, const std::string& path) {
    Clock::time_point t = Clock::now();
    opened.emplace(Must(provenance::OpenStore(ImageOptions(spec, path)),
                        "open image in-process"));
    open_s = SecondsSince(t);
    engine.emplace(Must(lineage::IndexProjLineage::Create(wf.flow, &opened->store()),
                        "IndexProjLineage::Create"));
  }

  /// Computes the expected answer of every query not seen before, on
  /// the batch service (outside every timed phase).
  void Expect(const std::vector<Query>& queries) {
    std::vector<const Query*> missing;
    std::set<std::string> pending;
    for (const Query& q : queries) {
      if (!expected.count(q.key) && pending.insert(q.key).second) {
        missing.push_back(&q);
      }
    }
    lineage::LineageService service;
    for (size_t at = 0; at < missing.size(); at += 256) {
      std::vector<lineage::ServiceRequest> batch;
      for (size_t i = at; i < std::min(missing.size(), at + 256); ++i) {
        batch.push_back({&*engine, missing[i]->req});
      }
      std::vector<lineage::ServiceResponse> out = service.ExecuteBatch(batch);
      for (size_t i = 0; i < out.size(); ++i) {
        const Query& q = *missing[at + i];
        if (!out[i].status.ok()) {
          throw BenchError("in-process query failed: " + q.key + ": " +
                           out[i].status.ToString());
        }
        expected[q.key] = AnswerHash(out[i].answer);
      }
    }
  }
};

// --- the server process -------------------------------------------------------

std::atomic<pid_t> g_server_pid{0};

void KillServerAndExit(int) {
  pid_t pid = g_server_pid.load();
  if (pid > 0) ::kill(pid, SIGKILL);
  ::_exit(3);
}

/// `provlin serve` as a child process. The destructor stops it on every
/// exit path; PR_SET_PDEATHSIG covers a driver that dies outright.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log,
                std::string port_file)
      : port_file_(std::move(port_file)) {
    fs::remove(port_file_);
    // Everything the child needs is built before fork(): between fork
    // and exec the child may only make async-signal-safe calls.
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    spawned_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw BenchError("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::signal(SIGPIPE, SIG_DFL);  // exec keeps an ignored signal ignored
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    g_server_pid.store(pid_);
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Waits until the port file names the listening port; returns the
  /// seconds from spawn to that moment.
  double WaitAccepting(double timeout_s) {
    for (;;) {
      std::ifstream in(port_file_);
      std::string text;
      if (in && std::getline(in, text) && !in.eof() && !text.empty()) {
        double s = SecondsSince(spawned_);
        port_ = static_cast<uint16_t>(std::stoi(text));
        return s;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        g_server_pid.store(0);
        throw BenchError("provlin serve exited before accepting");
      }
      if (SecondsSince(spawned_) > timeout_s) {
        throw BenchError("provlin serve did not accept within " +
                         std::to_string(timeout_s) + " s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  uint16_t port() const { return port_; }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    Clock::time_point t = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(t) > 5.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    g_server_pid.store(0);
  }

 private:
  std::string port_file_;
  Clock::time_point spawned_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// --- served phases ------------------------------------------------------------

/// One open-loop phase against the server, summarized and checked.
struct Served {
  double rate = 0;
  std::vector<double> latency_ms;  // inf = failed
  std::vector<double> late_ms;
  std::vector<int> cls;
  std::vector<char> good;  // answered and checked
  size_t failed = 0;
  size_t backlog = 0;
  double server_cpu_s = 0;
  CpuJiffies jiffies;  // machine-wide, over the phase
  Scrape before, after;
  std::vector<std::string> payloads;
  std::vector<wire::RequestTimeline> timelines;  // traced phases only

  size_t n() const { return latency_ms.size(); }
  size_t ok() const { return n() - failed; }
  double P(double q) const { return WindowedPercentile(latency_ms, q); }
  double ClassP(int c, double q) const {
    std::vector<double> v;
    for (size_t i = 0; i < n(); ++i) {
      if (cls[i] == c) v.push_back(latency_ms[i]);
    }
    return WindowedPercentile(v, q);
  }
};

double StealShare(const Served& s) {
  return Ratio(static_cast<double>(s.jiffies.steal),
               static_cast<double>(s.jiffies.total));
}

/// One phase measured in slices: the slices' samples in order, their
/// counts and CPU summed.
Served Concat(std::vector<Served> parts) {
  Served all = std::move(parts.front());
  for (size_t i = 1; i < parts.size(); ++i) {
    Served& p = parts[i];
    auto append = [](auto* to, auto& from) {
      to->insert(to->end(), std::make_move_iterator(from.begin()),
                 std::make_move_iterator(from.end()));
    };
    append(&all.latency_ms, p.latency_ms);
    append(&all.late_ms, p.late_ms);
    append(&all.cls, p.cls);
    append(&all.good, p.good);
    append(&all.payloads, p.payloads);
    append(&all.timelines, p.timelines);
    all.failed += p.failed;
    all.backlog = std::max(all.backlog, p.backlog);
    all.server_cpu_s += p.server_cpu_s;
    all.jiffies.total += p.jiffies.total;
    all.jiffies.steal += p.jiffies.steal;
  }
  return all;
}

/// Elements [r*n/k, (r+1)*n/k) of `v`.
std::vector<Query> Slice(const std::vector<Query>& v, size_t r, size_t k) {
  return std::vector<Query>(v.begin() + static_cast<long>(r * v.size() / k),
                            v.begin() + static_cast<long>((r + 1) * v.size() / k));
}

class Session {
 public:
  Session(uint16_t port, pid_t server_pid, Oracle* oracle)
      : server_pid_(server_pid), oracle_(oracle) {
    for (size_t c = 0; c < kConnections; ++c) conns_.emplace_back(port);
  }

  Served Run(const std::string& name, const std::vector<Query>& queries,
             double rate, bool want_timeline) {
    oracle_->Expect(queries);
    std::vector<std::string> frames;
    frames.reserve(queries.size());
    const uint64_t first = next_id_;
    for (const Query& q : queries) {
      wire::RequestEnvelope env;
      env.request_id = next_id_++;
      env.engine = "indexproj";
      env.request = q.req;
      env.version = wire::kWireVersion;
      env.want_timeline = want_timeline;
      frames.push_back(Frame(wire::EncodeRequestEnvelope(env)));
    }
    Served s;
    s.rate = rate;
    s.before = ScrapeStats(&conns_[0], next_id_++);
    const CpuJiffies j0 = ReadCpuJiffies();
    double cpu0 = ProcessCpuSeconds(server_pid_);
    const double drain_s = 10.0;
    PhaseResult r = RunOpenLoop(&conns_, frames, first, rate, drain_s);
    const size_t unanswered = static_cast<size_t>(std::count_if(
        r.outcomes.begin(), r.outcomes.end(),
        [](const Outcome& o) { return o.payload.empty(); }));
    if (unanswered > 0 && !reported_stall_) {
      // Once per run: what the server's threads were doing when the
      // phase gave up on its last answers.
      reported_stall_ = true;
      std::printf("phase %s: %zu of %zu requests unanswered %.0f s after the last "
                  "send; server threads (tid:state:wchan): %s\n",
                  name.c_str(), unanswered, queries.size(), drain_s,
                  ThreadStates(server_pid_).c_str());
    }
    s.server_cpu_s = ProcessCpuSeconds(server_pid_) - cpu0;
    const CpuJiffies j1 = ReadCpuJiffies();
    s.jiffies = {j1.total - j0.total, j1.steal - j0.steal};
    s.after = ScrapeStats(&conns_[0], next_id_++);
    s.backlog = r.backlog_at_last_send;
    // A request never answered counts as failed; its latency is kept
    // as the longest the phase could have charged it.
    const double cap_ms = (r.wall_s + drain_s) * 1e3;
    for (size_t i = 0; i < queries.size(); ++i) {
      Outcome& o = r.outcomes[i];
      s.cls.push_back(queries[i].cls);
      s.late_ms.push_back(o.late_ms);
      bool good = false;
      if (!o.payload.empty()) {
        auto env = wire::DecodeResponseEnvelope(o.payload);
        if (!env.ok()) {
          throw BenchError("undecodable answer in phase " + name + ": " +
                           env.status().ToString());
        }
        if (env->ok) {
          if (AnswerHash(env->answer) != oracle_->expected.at(queries[i].key)) {
            throw BenchError("served answer differs from the in-process "
                             "engine for " + queries[i].key);
          }
          good = true;
          if (want_timeline) {
            if (!env->has_timeline) {
              throw BenchError("traced answer without a timeline");
            }
            s.timelines.push_back(env->timeline);
          }
        } else if (env->code != wire::ErrorCode::kOverloaded) {
          throw BenchError("served error " +
                           std::string(wire::ErrorCodeName(env->code)) +
                           " for " + queries[i].key + ": " + env->message);
        }
      }
      s.good.push_back(good);
      if (good) {
        s.latency_ms.push_back(o.latency_ms);
      } else {
        ++s.failed;
        s.latency_ms.push_back(kInf);
        if (want_timeline) s.timelines.emplace_back();
      }
      s.payloads.push_back(std::move(o.payload));
    }
    for (double& v : s.latency_ms) v = std::min(v, cap_ms);
    return s;
  }

 private:
  std::vector<Connection> conns_;
  pid_t server_pid_;
  Oracle* oracle_;
  uint64_t next_id_ = 1;
  bool reported_stall_ = false;
};

// --- capture phase -------------------------------------------------------------

struct Capture {
  size_t runs = 0;
  size_t failed = 0;
  size_t rows = 0;
  std::vector<double> run_ms;
  double phase_s = 0;
  double save_s = 0;
  uint64_t wal_bytes = 0;
  uint64_t image_bytes = 0;
  // Traced extras.
  double null_run_ms = 0;
  double capture_share = 0;
  double capture_ms_per_krow = 0;
  double seal_ms = 0;
  // VmHWM of the process that captured (measured runs only).
  double peak_rss_mb = 0;
};

uint64_t FilesWithPrefix(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

/// Closed loop, one client thread: captures `spec.capture_runs` runs
/// into a WAL-backed copy of the served image with synchronous ingest.
/// The runs go in chunks, each ending with Flush and a Save, so the
/// capture metrics sample the host at several points of the run.
/// Finish() reopens the image, checks every run's row count and
/// re-answers a sample of queries identically.
class CaptureSession {
 public:
  CaptureSession(const Spec& spec, uint64_t seed, const std::string& dir,
                 const std::string& image, SpanLog* spans)
      : spec_(spec), dir_(dir), db_(dir + "/capture.db"), spans_(spans),
        wf_(LoadSynthetic(kCaptureL)) {
    fs::copy_file(image, db_, fs::copy_options::overwrite_existing);
    // Each block of seven runs takes every list size of the range once,
    // in an order drawn from the seed: every seed captures the same rows
    // at nearly the same pace, so the byte and memory metrics do not
    // move with the seed.
    ds_.resize(static_cast<size_t>(spec.capture_runs));
    const size_t block = static_cast<size_t>(kCaptureDHi - kCaptureDLo + 1);
    std::mt19937_64 rng(seed ^ 0xc0ffee);
    for (size_t at = 0; at < ds_.size(); at += block) {
      const size_t end = std::min(ds_.size(), at + block);
      for (size_t i = at; i < end; ++i) ds_[i] = kCaptureDLo + static_cast<int>(i - at);
      std::shuffle(ds_.begin() + static_cast<long>(at), ds_.begin() + static_cast<long>(end),
                   rng);
    }
    run_ok_.resize(ds_.size());
    provenance::StoreOptions options = ImageOptions(spec, db_);
    options.wal_base = dir + "/capture.wal";
    options.async_ingest = false;
    auto span = spans->Open("storage.open_capture_image");
    opened_.emplace(Must(provenance::OpenStore(options), "open capture image"));
  }

  /// Captures runs [begin, end), flushes, and saves the image.
  void Chunk(size_t begin, size_t end) {
    Clock::time_point phase = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      auto span = spans_->Open("engine.execute_captured", i);
      Clock::time_point t = Clock::now();
      run_ok_[i] = ExecuteRun(*wf_, &opened_->store(), Run(i), ds_[i]);
      c_.run_ms.push_back(MsSince(t));
      if (run_ok_[i]) {
        c_.rows += ClosedFormRows(kCaptureL, ds_[i]);
      } else {
        ++c_.failed;
      }
    }
    Must(opened_->store().Flush(), "flush capture store");
    c_.phase_s += SecondsSince(phase);
    auto span = spans_->Open("storage.save");
    Clock::time_point t = Clock::now();
    Must(opened_->Save(), "save capture image");
    saves_.push_back(SecondsSince(t));
  }

  Capture Finish(bool traced);

 private:
  std::string Run(size_t i) const { return RunId("c", static_cast<int>(i)); }

  const Spec& spec_;
  std::string dir_;
  std::string db_;
  SpanLog* spans_;
  std::unique_ptr<Workflow> wf_;
  std::vector<int> ds_;
  std::vector<bool> run_ok_;
  std::optional<provenance::OpenedStore> opened_;
  std::vector<double> saves_;
  Capture c_;
};

Capture CaptureSession::Finish(bool traced) {
  Capture c = std::move(c_);
  const std::vector<int>& ds = ds_;
  c.runs = ds.size();
  c.save_s = Median(saves_);
  // A sample of lineage queries over captured runs, answered on the
  // saved state and again after the reopen.
  std::vector<lineage::LineageRequest> sample;
  for (size_t i = 0; i < ds.size() && sample.size() < 16; i += ds.size() / 16 + 1) {
    if (!run_ok_[i]) continue;
    int d = ds[i];
    sample.push_back(lineage::LineageRequest::SingleRun(
        Run(i), {"workflow", "RESULT"}, Index({d - 1, d / 2}),
        sample.size() % 2 ? lineage::InterestSet{testbed::kListGen}
                          : lineage::InterestSet{}));
  }
  auto answer_all = [&](const provenance::TraceStore& store) {
    auto engine = Must(lineage::IndexProjLineage::Create(wf_->flow, &store),
                       "IndexProjLineage::Create (capture)");
    std::vector<uint64_t> hashes;
    for (const auto& r : sample) {
      hashes.push_back(AnswerHash(Must(engine.Query(r), "capture sample query")));
    }
    return hashes;
  };
  std::vector<uint64_t> before = answer_all(opened_->store());
  c.wal_bytes = FilesWithPrefix(dir_, "capture.wal");
  c.image_bytes = fs::file_size(db_);
  opened_.reset();

  provenance::OpenedStore reopened = Must(
      provenance::OpenStore(ImageOptions(spec_, db_)), "reopen capture image");
  // Row counts after the reopen: the store total must equal the image's
  // runs plus every captured run's closed form, and each run must hold
  // exactly its closed form. Sealed runs decode in O(run); hot runs
  // cost a shard scan each, so on a hot image only a sample is scanned.
  size_t expected_total =
      static_cast<size_t>(spec_.image_runs) * ClosedFormRows(spec_.image_l, spec_.image_d);
  for (size_t i = 0; i < ds.size(); ++i) {
    if (run_ok_[i]) expected_total += ClosedFormRows(kCaptureL, ds[i]);
  }
  auto all = Must(reopened.store().CountAllRecords(), "count all rows");
  if (all.TotalDependencyRecords() != expected_total) {
    throw BenchError("reopened capture image holds " +
                     std::to_string(all.TotalDependencyRecords()) +
                     " rows, closed form says " + std::to_string(expected_total));
  }
  const size_t stride =
      spec_.compress == provenance::CompressMode::kOff ? ds.size() / 16 + 1 : 1;
  for (size_t i = 0; i < ds.size(); i += stride) {
    if (!run_ok_[i]) continue;
    const std::string run = Run(i);
    size_t rows = Must(reopened.store().ScanXforms(run), "scan xforms").size() +
                  Must(reopened.store().ScanXfers(run), "scan xfers").size();
    if (rows != ClosedFormRows(kCaptureL, ds[i])) {
      throw BenchError("captured run " + run + " has " + std::to_string(rows) +
                       " rows after reopen, closed form says " +
                       std::to_string(ClosedFormRows(kCaptureL, ds[i])));
    }
  }
  if (answer_all(reopened.store()) != before) {
    throw BenchError("lineage answers changed across Save and reopen");
  }
  const Workflow* wf = wf_.get();
  SpanLog* spans = spans_;

  if (traced) {
    // Capture cost: the same runs with and without the recorder,
    // interleaved so drift hits both sides alike.
    std::vector<double> with, without;
    double rows = 0;
    const size_t n = std::min<size_t>(ds.size(), 200);
    for (size_t i = 0; i < n; ++i) {
      {
        auto span = spans->Open("engine.execute_null_observer", i);
        provlin::engine::Executor bare(&wf->registry, nullptr);
        std::map<std::string, Value> in{{"ListSize", testbed::SyntheticInput(ds[i])}};
        Clock::time_point t = Clock::now();
        Must(bare.Execute(*wf->flow, in, RunId("n", static_cast<int>(i))),
             "uncaptured run");
        without.push_back(MsSince(t));
      }
      {
        auto span = spans->Open("engine.execute_captured", i);
        Clock::time_point t = Clock::now();
        if (!ExecuteRun(*wf, &reopened.store(), RunId("t", static_cast<int>(i)), ds[i])) {
          throw BenchError("traced capture run failed");
        }
        with.push_back(MsSince(t));
      }
      rows += static_cast<double>(ClosedFormRows(kCaptureL, ds[i]));
    }
    double sw = 0, so = 0;
    for (double v : with) sw += v;
    for (double v : without) so += v;
    c.null_run_ms = Median(without);
    c.capture_share = Ratio(sw - so, sw);
    c.capture_ms_per_krow = Ratio(sw - so, rows) * 1e3;
    // Seal cost per run: runs captured into a hot in-memory store,
    // then sealed one by one.
    provenance::StoreOptions scratch;
    scratch.shards = kShards;
    scratch.compress = provenance::CompressMode::kOff;
    provenance::OpenedStore hot = Must(provenance::OpenStore(scratch), "open scratch store");
    std::vector<double> seal;
    for (size_t i = 0; i < std::min<size_t>(ds.size(), 16); ++i) {
      const std::string run = RunId("s", static_cast<int>(i));
      if (!ExecuteRun(*wf, &hot.store(), run, ds[i])) {
        throw BenchError("scratch capture run failed");
      }
      auto span = spans->Open("provenance.seal_run", i);
      Clock::time_point t = Clock::now();
      Must(hot.store().SealRun(run), "SealRun");
      seal.push_back(MsSince(t));
    }
    c.seal_ms = Median(seal);
  }
  return c;
}

/// The write side of a measured run, in a child process of its own so
/// that the child's VmHWM is the capture side's alone (`peak_rss_mb` on
/// `capture`). The child is forked before the driver loads anything and
/// runs a CaptureSession on command: the parent writes one command at a
/// time down a pipe and blocks until the child answers up another.
class CaptureWorker {
 public:
  CaptureWorker(const Spec& spec, uint64_t seed, const std::string& dir,
                const std::string& image) {
    // Close-on-exec, so the servers spawned later do not hold the pipes.
    int down[2], up[2];
    if (::pipe2(down, O_CLOEXEC) != 0) throw BenchError("pipe failed");
    if (::pipe2(up, O_CLOEXEC) != 0) throw BenchError("pipe failed");
    std::fflush(stdout);
    pid_ = ::fork();
    if (pid_ < 0) throw BenchError("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::close(down[1]);
      ::close(up[0]);
      ::_exit(Child(spec, seed, dir, image, down[0], up[1]));
    }
    ::close(down[0]);
    ::close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
  }
  ~CaptureWorker() {
    ::close(to_child_);
    ::close(from_child_);
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  CaptureWorker(const CaptureWorker&) = delete;
  CaptureWorker& operator=(const CaptureWorker&) = delete;

  /// Opens the capture image; call once the served image is saved.
  void Open() { Call(kOpen, 0, 0); }
  /// CaptureSession::Chunk in the child.
  void Chunk(size_t begin, size_t end) { Call(kChunk, begin, end); }
  /// CaptureSession::Finish in the child, plus the child's VmHWM.
  Capture Finish() {
    std::string bytes = Call(kFinish, 0, 0);
    Capture c;
    size_t at = 0;
    auto get = [&](auto* v) {
      if (at + sizeof *v > bytes.size()) throw BenchError("short capture reply");
      std::memcpy(v, bytes.data() + at, sizeof *v);
      at += sizeof *v;
    };
    size_t n_runs = 0;
    get(&c.runs);
    get(&c.failed);
    get(&c.rows);
    get(&c.phase_s);
    get(&c.save_s);
    get(&c.wal_bytes);
    get(&c.image_bytes);
    get(&c.peak_rss_mb);
    get(&n_runs);
    c.run_ms.resize(n_runs);
    for (double& v : c.run_ms) get(&v);
    return c;
  }

 private:
  enum Op : uint64_t { kOpen, kChunk, kFinish };
  struct Command {
    uint64_t op, begin, end;
  };

  static void WriteAll(int fd, const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::write(fd, p, n);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw BenchError("capture process pipe closed");
      p += w;
      n -= static_cast<size_t>(w);
    }
  }
  static void ReadAll(int fd, void* data, size_t n) {
    char* p = static_cast<char*>(data);
    while (n > 0) {
      ssize_t r = ::read(fd, p, n);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw BenchError("capture process exited unexpectedly");
      p += r;
      n -= static_cast<size_t>(r);
    }
  }
  /// Reply: [u8 ok][u64 length][bytes]; the bytes are the error message
  /// when ok is 0.
  static void Reply(int fd, bool ok, const std::string& bytes) {
    const uint8_t flag = ok;
    const uint64_t len = bytes.size();
    WriteAll(fd, &flag, 1);
    WriteAll(fd, &len, sizeof len);
    WriteAll(fd, bytes.data(), bytes.size());
  }

  std::string Call(Op op, size_t begin, size_t end) {
    const Command cmd{op, begin, end};
    WriteAll(to_child_, &cmd, sizeof cmd);
    uint8_t ok = 0;
    uint64_t len = 0;
    ReadAll(from_child_, &ok, 1);
    ReadAll(from_child_, &len, sizeof len);
    std::string bytes(len, '\0');
    ReadAll(from_child_, bytes.data(), len);
    if (!ok) throw BenchError(bytes);
    return bytes;
  }

  static int Child(const Spec& spec, uint64_t seed, const std::string& dir,
                   const std::string& image, int in, int out) {
    try {
      SpanLog spans;
      std::optional<CaptureSession> session;
      for (;;) {
        Command cmd{};
        ReadAll(in, &cmd, sizeof cmd);
        if (cmd.op == kOpen) {
          session.emplace(spec, seed, dir, image, &spans);
          Reply(out, true, "");
        } else if (cmd.op == kChunk) {
          session->Chunk(cmd.begin, cmd.end);
          Reply(out, true, "");
        } else {
          Capture c = session->Finish(false);
          c.peak_rss_mb = ProcessPeakRssMb(::getpid());
          std::string bytes;
          auto put = [&](const auto& v) {
            bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
          };
          put(c.runs);
          put(c.failed);
          put(c.rows);
          put(c.phase_s);
          put(c.save_s);
          put(c.wal_bytes);
          put(c.image_bytes);
          put(c.peak_rss_mb);
          put(c.run_ms.size());
          for (double v : c.run_ms) put(v);
          Reply(out, true, bytes);
          return 0;
        }
      }
    } catch (const std::exception& e) {
      try {
        Reply(out, false, e.what());
      } catch (const std::exception&) {
      }
      return 1;
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, size_t attempted,
                 size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string SampleNote(size_t n) { return "(n=" + std::to_string(n) + ")"; }

// --- the run -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;
  std::string provlin;
  std::string dir;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--smoke") a.smoke = v == "1";
    else if (k == "--provlin") a.provlin = v;
    else if (k == "--dir") a.dir = v;
    else if (k == "--spans-out") a.spans_out = v;
    else throw BenchError("unknown flag " + k);
  }
  if (a.workload.empty() || a.provlin.empty() || a.dir.empty() || a.seconds <= 0) {
    throw BenchError("usage: perfbench_driver --workload W --seed N --seconds S "
                     "--trace 0|1 --provlin PATH --dir DIR");
  }
  return a;
}

/// Per-request phase inequalities of a traced phase:
/// queue + dispatch + execute <= server total <= client latency.
void CheckTimelines(const Served& s) {
  constexpr double kEps = 1e-3;  // ms; the wire carries doubles
  for (size_t i = 0; i < s.n(); ++i) {
    if (!s.good[i]) continue;
    const wire::RequestTimeline& t = s.timelines[i];
    double phases = t.queue_ms + t.dispatch_ms + t.execute_ms;
    if (phases > t.total_ms + kEps || t.total_ms > s.latency_ms[i] + kEps) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "phase budget violated on request %zu: queue %.4f + "
                    "dispatch %.4f + execute %.4f vs total %.4f vs client %.4f ms",
                    i, t.queue_ms, t.dispatch_ms, t.execute_ms, t.total_ms,
                    s.latency_ms[i]);
      throw BenchError(buf);
    }
  }
}

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args = ParseArgs(argc, argv);
  Spec spec = MakeSpec(args.workload, args.seconds, args.smoke);
  SpanLog spans;
  fs::create_directories(args.dir);
  const Clock::time_point t_main = Clock::now();
  auto progress = [&](const char* what) {
    std::printf("[%7.2f s] %s\n", SecondsSince(t_main), what);
  };
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  const std::string image = args.dir + "/served.db";
  // The measured run captures in a child process forked now, while the
  // driver holds next to nothing (see CaptureWorker).
  std::optional<CaptureWorker> worker;
  if (!args.trace) worker.emplace(spec, args.seed, args.dir, image);

  // 1. Served image; its shape is fixed per workload.
  std::unique_ptr<Workflow> wf = LoadSynthetic(spec.image_l);
  {
    auto span = spans.Open("fixture.build_image");
    Clock::time_point t = Clock::now();
    BuildImage(spec, *wf, image);
    std::printf("fixture: %d runs (l=%d, d=%d, compress %s) in %.2f s\n",
                spec.image_runs, spec.image_l, spec.image_d,
                spec.compress_flag.c_str(), SecondsSince(t));
  }

  progress("fixture built");
  // Flush dirty pages left by the fixture (and by earlier runs) so their
  // writeback does not land inside a measured phase.
  ::sync();
  // 2. Write side. Its chunks run between the served slices in the
  // capture process (untraced) or back to back in this one (traced).
  std::optional<CaptureSession> capture;
  if (worker) {
    worker->Open();
  } else {
    capture.emplace(spec, args.seed, args.dir, image, &spans);
  }
  const size_t capture_runs = static_cast<size_t>(spec.capture_runs);
  // 3. Reference engine and the answer checks that need no server.
  std::optional<Oracle> oracle;
  {
    auto span = spans.Open("storage.open_served_image");
    oracle.emplace(spec, *wf, image);
  }
  QueryGen gen(spec, args.seed);
  {
    // NI ≡ IndexProj on a sample of every class.
    lineage::NaiveLineage naive(&oracle->opened->store());
    QueryGen sample_gen(spec, args.seed ^ 0x5eed);
    for (int cls = 0; cls < 3; ++cls) {
      for (int i = 0; i < (cls == kFocusedCls ? 12 : 3); ++i) {
        Query q = sample_gen.Make(cls);
        auto ni = Must(naive.Query(q.req), "NI query");
        auto ip = Must(oracle->engine->Query(q.req), "IndexProj query");
        if (ni.bindings != ip.bindings) {
          throw BenchError("NI and IndexProj disagree on " + q.key);
        }
      }
    }
  }

  ::sync();
  progress("oracle ready");
  // 4. Read side: start-up, then the open-loop phases.
  std::vector<std::string> serve_argv = {
      args.provlin, "serve",
      "--workflow", "builtin:synthetic:" + std::to_string(spec.image_l),
      "--db", image,
      "--shards", std::to_string(kShards),
      "--compress", spec.compress_flag,
      "--port", "0",
      "--port-file", args.dir + "/port"};
  // While the server starts or serves a phase, every vCPU stays busy at
  // the lowest priority (see IdleSpinners); capture chunks run without.
  std::optional<IdleSpinners> spinners;
  spinners.emplace();
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  const int spawns = args.trace ? 1 : spec.setup_spawns;
  for (int i = 0; i < spawns; ++i) {
    server.reset();
    server = std::make_unique<ServerProcess>(
        serve_argv, args.dir + "/serve.log", args.dir + "/port");
    setups.push_back(server->WaitAccepting(120.0));
  }
  progress("server started");
  Session session(server->port(), server->pid(), &*oracle);
  auto print_capture = [](const Capture& cap) {
    std::printf("capture: %zu runs, %zu rows in %.2f s, save %.3f s\n", cap.runs,
                cap.rows, cap.phase_s, cap.save_s);
  };

  const double S = args.seconds;
  const size_t n_nominal = static_cast<size_t>(spec.nominal_rps * S * spec.nominal_share);
  std::vector<Query> nominal_q = gen.Stream(std::max<size_t>(n_nominal, 20));
  // Warm-up: plans, page cache and connection threads, untimed.
  session.Run("warmup", gen.Stream(static_cast<size_t>(spec.nominal_rps * 0.5) + 10),
              spec.nominal_rps, false);

  std::vector<Metric> out;

  if (!args.trace) {
    // Measured rounds: each captures a chunk of the runs, then serves a
    // slice of the nominal and of the peak stream, so every metric
    // samples the host at kRounds points spread over the run.
    const size_t n_peak = static_cast<size_t>(spec.peak_rps * S * spec.peak_share);
    std::vector<Query> peak_q = gen.Stream(std::max<size_t>(n_peak, 20));
    std::vector<Served> nominal_parts, peak_parts;
    std::vector<double> host_ref;
    for (size_t r = 0; r < kRounds; ++r) {
      spinners.reset();
      host_ref.push_back(HostReferenceMs());
      worker->Chunk(r * capture_runs / kRounds, (r + 1) * capture_runs / kRounds);
      spinners.emplace();
      const Served& n = nominal_parts.emplace_back(session.Run(
          "nominal", Slice(nominal_q, r, kRounds), spec.nominal_rps, false));
      const Served& p = peak_parts.emplace_back(
          session.Run("peak", Slice(peak_q, r, kRounds), spec.peak_rps, false));
      std::printf("round %zu: host reference %.3f ms; nominal p50 %.4f ms, "
                  "%.1f us CPU/req; peak p50 %.4f ms\n",
                  r + 1, host_ref.back(), n.P(0.5),
                  Ratio(n.server_cpu_s * 1e6, static_cast<double>(n.ok())), p.P(0.5));
    }
    Served nominal = Concat(std::move(nominal_parts));
    Served peak = Concat(std::move(peak_parts));
    const double server_rss = ProcessPeakRssMb(server->pid());
    progress("capture, nominal and peak rounds done");

    // Ladder: rung k runs at peak * 2^(k/8); rung 0 is the peak phase.
    // Rungs are short: `sustained_rps` is reported, not gated, and the
    // ladder is the part of a run no gated metric needs.
    constexpr double kRungSeconds = 0.5;
    std::map<int, bool> verdict;
    auto rate_of = [&](int k) { return spec.peak_rps * std::exp2(k / 8.0); };
    // A rung passes when its p99, with failed requests counted as
    // infinitely slow, meets the workload's limit and the backlog left
    // when the last request went out is under one limit's worth of
    // arrivals (no growing queue).
    auto judge = [&](const Served& s) {
      const double limit_backlog = std::max(4.0, s.rate * spec.p99_limit_ms / 1e3);
      return Percentile(s.latency_ms, 0.99) <= spec.p99_limit_ms &&
             static_cast<double>(s.backlog) <= limit_backlog;
    };
    auto pass = [&](int k) {
      if (!verdict.count(k)) {
        double rate = rate_of(k);
        Served rung = session.Run("rung", gen.Stream(static_cast<size_t>(rate * kRungSeconds)),
                                  rate, false);
        verdict[k] = judge(rung);
        std::printf("ladder: %.0f req/s p99 %.3f ms failed %zu backlog %zu "
                    "(generator late p99 %.4f ms, steal %.3f) -> %s\n",
                    rate, Percentile(rung.latency_ms, 0.99), rung.failed, rung.backlog,
                    Percentile(rung.late_ms, 0.99), StealShare(rung),
                    verdict[k] ? "pass" : "fail");
        // Let an overloaded server drain before the next rung.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      return verdict[k];
    };
    verdict[0] = judge(peak);
    int lo = spec.ladder_min_k - 1, hi = spec.ladder_max_k + 1;
    if (verdict[0]) {
      lo = 0;
      for (int k = 4; k <= spec.ladder_max_k; k += 4) {
        if (pass(k)) { lo = k; } else { hi = k; break; }
      }
      if (hi == spec.ladder_max_k + 1 && lo < spec.ladder_max_k) hi = spec.ladder_max_k + 1;
    } else {
      hi = 0;
      for (int k = -4; k >= spec.ladder_min_k; k -= 4) {
        if (pass(k)) { lo = k; break; }
        hi = k;
      }
    }
    while (hi - lo > 1 && lo >= spec.ladder_min_k) {
      int mid = lo + (hi - lo) / 2;
      if (pass(mid)) lo = mid; else hi = mid;
    }
    const double sustained = rate_of(lo);
    server->Stop();
    spinners.reset();
    progress("ladder done");
    const Capture cap = worker->Finish();
    print_capture(cap);
    std::printf("VmHWM: server %.2f MB, capture process %.2f MB\n", server_rss,
                cap.peak_rss_mb);
    const size_t attempted = cap.runs + nominal.n() + peak.n();
    const size_t failed = cap.failed + nominal.failed + peak.failed;
    const double steal = StealShare(nominal);

    std::vector<double> lateness = nominal.late_ms;
    std::printf("nominal %.0f req/s: generator late p50 %.4f p99 %.4f ms, steal %.3f\n",
                spec.nominal_rps, Percentile(lateness, 0.5),
                Percentile(lateness, 0.99), steal);
    std::printf("peak %.0f req/s: generator late p99 %.4f ms, steal %.3f\n",
                spec.peak_rps, Percentile(peak.late_ms, 0.99), StealShare(peak));

    out.push_back({"p50_ms", nominal.P(0.5), "ms", SampleNote(nominal.n())});
    out.push_back({"p99_ms", nominal.P(0.99), "ms", SampleNote(nominal.n())});
    out.push_back({"peak_p50_ms", peak.P(0.5), "ms", SampleNote(peak.n())});
    out.push_back({"peak_p99_ms", peak.P(0.99), "ms", SampleNote(peak.n())});
    size_t n_light = 0;
    for (int c : nominal.cls) n_light += c == kFocusedCls;
    out.push_back({"light_p99_ms", nominal.ClassP(kFocusedCls, 0.99), "ms",
                   SampleNote(n_light)});
    out.push_back({"sustained_rps", sustained, "req/s",
                   "(ladder rung, p99 <= " + Num(spec.p99_limit_ms) + " ms)"});
    out.push_back({"cpu_us_per_req",
                   Ratio(nominal.server_cpu_s * 1e6, static_cast<double>(nominal.ok())),
                   "us", SampleNote(nominal.ok())});
    out.push_back({"ok_share",
                   Ratio(static_cast<double>(attempted - failed),
                         static_cast<double>(attempted)),
                   "ratio", SampleNote(attempted)});
    out.push_back({"setup_s", Median(setups), "s", SampleNote(setups.size())});
    // The server's footprint on the served workloads, the capture
    // process's on `capture`.
    if (spec.name == "capture") {
      out.push_back({"peak_rss_mb", cap.peak_rss_mb, "MB", "(capture process VmHWM)"});
    } else {
      out.push_back({"peak_rss_mb", server_rss, "MB", "(server VmHWM)"});
    }
    out.push_back({"capture_rows_per_s", Ratio(static_cast<double>(cap.rows), cap.phase_s),
                   "rows/s", SampleNote(cap.rows)});
    out.push_back({"run_p50_ms", WindowedPercentile(cap.run_ms, 0.5), "ms", SampleNote(cap.runs)});
    out.push_back({"run_p99_ms", WindowedPercentile(cap.run_ms, 0.99), "ms", SampleNote(cap.runs)});
    out.push_back({"host_ref_ms", Median(host_ref), "ms", "(median of the rounds)"});
    out.push_back({"save_s", cap.save_s, "s", "(median of " + std::to_string(kRounds) + " Saves)"});
    out.push_back({"written_bytes_per_row",
                   Ratio(static_cast<double>(cap.wal_bytes + cap.image_bytes),
                         static_cast<double>(cap.rows)),
                   "B/row", "(exact)"});
    std::printf("end-to-end metrics:\n");
    PrintResult(out, attempted, failed);
    return 0;
  }

  // --- traced run: per-layer metrics ------------------------------------------
  spinners.reset();
  const double host_ref = HostReferenceMs();
  std::printf("host reference %.3f ms\n", host_ref);
  for (size_t r = 0; r < kRounds; ++r) {
    capture->Chunk(r * capture_runs / kRounds, (r + 1) * capture_runs / kRounds);
  }
  const Capture cap = capture->Finish(true);
  print_capture(cap);
  spinners.emplace();
  Served plain = session.Run("nominal", nominal_q, spec.nominal_rps, false);
  Served traced = session.Run("nominal-traced", nominal_q, spec.nominal_rps, true);
  const size_t attempted = cap.runs + traced.n();
  const size_t failed = cap.failed + traced.failed;
  CheckTimelines(traced);
  server->Stop();
  spinners.reset();

  std::vector<double> queue, dispatch, execute, total, outside;
  double hot = 0, sealed = 0, probes = 0, descents = 0;
  for (size_t i = 0; i < traced.n(); ++i) {
    if (!traced.good[i]) continue;
    const wire::RequestTimeline& t = traced.timelines[i];
    queue.push_back(t.queue_ms);
    dispatch.push_back(t.dispatch_ms);
    execute.push_back(t.execute_ms);
    total.push_back(t.total_ms);
    outside.push_back(traced.latency_ms[i] - t.total_ms);
    hot += static_cast<double>(t.hot_probes);
    sealed += static_cast<double>(t.sealed_probes);
    probes += static_cast<double>(t.trace_probes);
    descents += static_cast<double>(t.trace_descents);
  }
  const double batch_mean =
      Ratio(Delta(traced.before, traced.after, "server/batch_size#sum"),
            Delta(traced.before, traced.after, "server/batch_size#count"));
  const double shed = Delta(traced.before, traced.after, "server/overload_shed");

  // Budget: medians of the server phases plus the remainders; the rows
  // sum to the traced client p50 by construction.
  {
    const double client = traced.P(0.5);
    const double q = Median(queue), d = Median(dispatch), e = Median(execute);
    const double tot = Median(total);
    std::printf("latency budget at %.0f req/s (traced, n=%zu):\n", spec.nominal_rps,
                traced.n());
    std::printf("  %-22s %10.4f ms\n", "queue p50", q);
    std::printf("  %-22s %10.4f ms\n", "dispatch p50", d);
    std::printf("  %-22s %10.4f ms\n", "execute p50", e);
    std::printf("  %-22s %10.4f ms\n", "server other", tot - q - d - e);
    std::printf("  %-22s %10.4f ms\n", "outside (client-total)", client - tot);
    std::printf("  %-22s %10.4f ms\n", "= client p50", client);
  }

  // In-process replay of the same image through each layer's public calls.
  provenance::TraceStore& store = oracle->opened->store();
  std::vector<double> loads{oracle->open_s};
  for (int i = 0; i < 2; ++i) {
    auto span = spans.Open("storage.open_served_image");
    Clock::time_point t = Clock::now();
    auto again = Must(provenance::OpenStore(ImageOptions(spec, image)), "reopen image");
    loads.push_back(SecondsSince(t));
  }
  std::vector<double> propagate;
  for (int i = 0; i < 5; ++i) {
    auto span = spans.Open("workflow.propagate_depths");
    Clock::time_point t = Clock::now();
    auto e = Must(lineage::IndexProjLineage::Create(wf->flow, &store), "Create");
    propagate.push_back(MsSince(t));
  }

  // wire: the workload's own requests and the served answers.
  double req_enc = 0, req_dec = 0, ans_enc = 0, ans_dec = 0, ans_bytes = 0;
  {
    auto span = spans.Open("wire.codec_replay");
    std::vector<std::string> reqs;
    Clock::time_point t = Clock::now();
    for (size_t i = 0; i < nominal_q.size(); ++i) {
      wire::RequestEnvelope env;
      env.request_id = i + 1;
      env.engine = "indexproj";
      env.request = nominal_q[i].req;
      env.version = wire::kWireVersion;
      reqs.push_back(wire::EncodeRequestEnvelope(env));
    }
    req_enc = MsSince(t) * 1e3 / static_cast<double>(reqs.size());
    t = Clock::now();
    for (const std::string& r : reqs) Must(wire::DecodeRequestEnvelope(r), "decode request");
    req_dec = MsSince(t) * 1e3 / static_cast<double>(reqs.size());
    std::vector<lineage::LineageAnswer> answers;
    size_t answered = 0;
    t = Clock::now();
    for (const std::string& p : plain.payloads) {
      if (p.empty()) continue;
      auto env = Must(wire::DecodeResponseEnvelope(p), "decode answer");
      answers.push_back(std::move(env.answer));
      ans_bytes += static_cast<double>(p.size());
      ++answered;
    }
    ans_dec = MsSince(t) * 1e3 / static_cast<double>(std::max<size_t>(answered, 1));
    ans_bytes /= static_cast<double>(std::max<size_t>(answered, 1));
    t = Clock::now();
    for (size_t i = 0; i < answers.size(); ++i) {
      std::string enc = wire::EncodeAnswerResponseV2(i + 1, answers[i], nullptr);
      if (enc.empty()) throw BenchError("empty answer encoding");
    }
    ans_enc = MsSince(t) * 1e3 / static_cast<double>(std::max<size_t>(answers.size(), 1));
  }

  // service: the request stream cut into batches of the served mean.
  double batch_ms = 0, wait_p50 = 0, plan_hit = 0, memo_hit = 0;
  {
    auto engine = Must(lineage::IndexProjLineage::Create(wf->flow, &store), "Create");
    lineage::LineageService service;
    const size_t bsize = std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
    std::vector<double> walls, waits;
    for (size_t at = 0; at < nominal_q.size(); at += bsize) {
      std::vector<lineage::ServiceRequest> batch;
      for (size_t i = at; i < std::min(nominal_q.size(), at + bsize); ++i) {
        batch.push_back({&engine, nominal_q[i].req});
      }
      auto span = spans.Open("service.execute_batch", at);
      Clock::time_point t = Clock::now();
      std::vector<lineage::ServiceResponse> resp = service.ExecuteBatch(batch);
      walls.push_back(MsSince(t));
      for (const auto& r : resp) {
        Must(r.status, "service request");
        waits.push_back(r.queue_wait_ms);
      }
    }
    lineage::ServiceMetrics m = service.metrics();
    batch_ms = Mean(walls);
    wait_p50 = Median(waits);
    plan_hit = m.plan_cache_hit_rate();
    memo_hit = Ratio(static_cast<double>(m.probe_memo_hits),
                     static_cast<double>(m.probe_memo_lookups));
  }

  // engines: one thread, no probe memo, per request class.
  struct ClassCost {
    std::vector<double> ms;
    double t1 = 0, t2 = 0, probes = 0, descents = 0, bindings = 0, rows = 0;
    size_t n = 0;
  };
  ClassCost cost[3];
  double plan_cold = 0;
  {
    auto engine = Must(lineage::IndexProjLineage::Create(wf->flow, &store), "Create");
    // The server had planned every key of the nominal stream before its
    // traced phase; give the replay engine the same plan cache.
    for (const Query& q : nominal_q) {
      Must(engine.Plan(q.req.target, q.req.index, q.req.interest), "Plan");
    }
    QueryGen class_gen(spec, args.seed ^ 0xc1a55);
    const int per_class[3] = {args.smoke ? 20 : 300, args.smoke ? 4 : 40,
                              args.smoke ? 4 : 40};
    std::vector<Query> focused_sample;
    for (int cls = 0; cls < 3; ++cls) {
      for (int i = 0; i < per_class[cls]; ++i) {
        Query q = class_gen.Make(cls);
        if (cls == kFocusedCls && i < 50) focused_sample.push_back(q);
        provenance::ProbeBreakdown bd;
        provenance::ProbeBreakdownScope scope(&bd);
        auto span = spans.Open(std::string("lineage.query.") + kClsNames[cls],
                               static_cast<uint64_t>(i));
        Clock::time_point t = Clock::now();
        lineage::LineageAnswer a = Must(engine.Query(q.req), "engine query");
        ClassCost& c = cost[cls];
        c.ms.push_back(MsSince(t));
        c.t1 += a.timing.t1_ms;
        c.t2 += a.timing.t2_ms;
        c.probes += static_cast<double>(a.timing.trace_probes);
        c.descents += static_cast<double>(a.timing.trace_descents);
        c.bindings += static_cast<double>(a.bindings.size());
        for (const auto& [shard, s] : bd.shards) c.rows += static_cast<double>(s.rows);
        ++c.n;
      }
    }
    std::vector<double> cold;
    for (size_t i = 0; i < focused_sample.size(); ++i) {
      const Query& q = focused_sample[i];
      auto span = spans.Open("lineage.plan_cold", i);
      engine.ClearPlanCache();
      Clock::time_point t = Clock::now();
      Must(engine.Plan(q.req.target, q.req.index, q.req.interest), "Plan");
      cold.push_back(MsSince(t));
    }
    plan_cold = Median(cold);
  }
  double all_rows = 0, all_bindings = 0;
  for (const ClassCost& c : cost) {
    all_rows += c.rows;
    all_bindings += c.bindings;
  }

  // storage footprint of the served image.
  auto counts = Must(store.CountAllRecords(), "CountAllRecords");
  const double image_rows = static_cast<double>(counts.TotalDependencyRecords());
  provenance::TraceStore::TierBytes tiers = store.ApproxMemory();

  const double steal_jiffies =
      static_cast<double>(plain.jiffies.steal + traced.jiffies.steal);
  const double total_jiffies =
      static_cast<double>(plain.jiffies.total + traced.jiffies.total);

  out.push_back({"server.queue_p50_ms", Median(queue), "ms", ""});
  out.push_back({"server.queue_p99_ms", Percentile(queue, 0.99), "ms", ""});
  out.push_back({"server.dispatch_p50_ms", Median(dispatch), "ms", ""});
  out.push_back({"server.execute_p50_ms", Median(execute), "ms", ""});
  out.push_back({"server.outside_p50_ms", Median(outside), "ms", "(client - server total)"});
  out.push_back({"server.batch_mean", batch_mean, "count", "(STATS delta)"});
  out.push_back({"server.shed", shed, "count", "(STATS delta)"});
  out.push_back({"wire.req_encode_us", req_enc, "us", ""});
  out.push_back({"wire.req_decode_us", req_dec, "us", ""});
  out.push_back({"wire.ans_encode_us", ans_enc, "us", ""});
  out.push_back({"wire.ans_decode_us", ans_dec, "us", ""});
  out.push_back({"wire.ans_bytes", ans_bytes, "B", ""});
  out.push_back({"service.batch_ms", batch_ms, "ms", ""});
  out.push_back({"service.wait_p50_ms", wait_p50, "ms", ""});
  out.push_back({"service.plan_hit_ratio", plan_hit, "ratio", ""});
  out.push_back({"service.memo_hit_ratio", memo_hit, "ratio", ""});
  for (int cls = 0; cls < 3; ++cls) {
    const ClassCost& c = cost[cls];
    const double n = static_cast<double>(std::max<size_t>(c.n, 1));
    const std::string p = std::string("lineage.") + kClsNames[cls];
    out.push_back({p + ".p50_ms", Median(c.ms), "ms", SampleNote(c.n)});
    out.push_back({p + ".t1_ms", c.t1 / n, "ms", "(mean s1)"});
    out.push_back({p + ".t2_ms", c.t2 / n, "ms", "(mean s2)"});
    out.push_back({p + ".probes", c.probes / n, "count", "(mean)"});
    out.push_back({p + ".descents", c.descents / n, "count", "(mean)"});
    out.push_back({p + ".bindings", c.bindings / n, "count", "(mean)"});
  }
  out.push_back({"lineage.plan_cold_ms", plan_cold, "ms", ""});
  out.push_back({"provenance.sealed_probe_share", Ratio(sealed, hot + sealed), "ratio", ""});
  out.push_back({"provenance.rows_per_binding", Ratio(all_rows, all_bindings), "ratio", ""});
  out.push_back({"provenance.seal_ms", cap.seal_ms, "ms", "(per run)"});
  out.push_back({"provenance.capture_ms_per_krow", cap.capture_ms_per_krow, "ms/krow", ""});
  out.push_back({"storage.descents_per_probe", Ratio(descents, probes), "ratio", ""});
  out.push_back({"storage.load_s", Median(loads), "s", SampleNote(loads.size())});
  out.push_back({"storage.image_bytes_per_row",
                 Ratio(static_cast<double>(fs::file_size(image)), image_rows), "B/row", ""});
  out.push_back({"storage.wal_bytes_per_row",
                 Ratio(static_cast<double>(cap.wal_bytes), static_cast<double>(cap.rows)),
                 "B/row", ""});
  out.push_back({"storage.hot_bytes_per_row",
                 Ratio(static_cast<double>(tiers.hot_bytes), static_cast<double>(tiers.hot_rows)),
                 "B/row", ""});
  out.push_back({"storage.sealed_bytes_per_row",
                 Ratio(static_cast<double>(tiers.sealed_bytes),
                       static_cast<double>(tiers.sealed_rows)),
                 "B/row", ""});
  out.push_back({"engine.run_ms", cap.null_run_ms, "ms", "(no observer)"});
  out.push_back({"engine.capture_share", cap.capture_share, "ratio", ""});
  out.push_back({"workflow.propagate_ms", Median(propagate), "ms", ""});
  out.push_back({"driver.late_p50_ms", Percentile(plain.late_ms, 0.5), "ms", ""});
  out.push_back({"driver.late_p99_ms", Percentile(plain.late_ms, 0.99), "ms", ""});
  out.push_back({"driver.steal_share", Ratio(steal_jiffies, total_jiffies), "ratio", ""});
  out.push_back({"driver.trace_overhead", Ratio(traced.P(0.5), plain.P(0.5)), "ratio", ""});
  out.push_back({"driver.host_ref_ms", host_ref, "ms", ""});

  std::printf("span self time (in-process replay):\n");
  for (const auto& [name, st] : spans.SelfTimes()) {
    std::printf("  %-34s n=%-6zu total %10.3f ms  self %10.3f ms\n", name.c_str(),
                st.count, st.total_ms, st.self_ms);
  }
  if (!args.spans_out.empty()) spans.WriteJson(args.spans_out);
  std::printf("per-layer metrics:\n");
  PrintResult(out, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGTERM, perfbench::KillServerAndExit);
  ::signal(SIGINT, perfbench::KillServerAndExit);
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: FAIL: %s\n", e.what());
    return 1;
  }
}

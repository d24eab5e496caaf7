#include "openloop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lineage/wire.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace wire = provlin::lineage::wire;

constexpr size_t kMaxPayloadBytes = 64u << 20;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

timespec ToTimespec(Clock::duration d) {
  if (d < Clock::duration::zero()) d = Clock::duration::zero();
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ts;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BenchError("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Connection::Connection(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw BenchError("socket(): " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::string why = strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw BenchError("connect to 127.0.0.1:" + std::to_string(port) + ": " +
                     why);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_),
      out_(std::move(other.out_)),
      out_off_(other.out_off_),
      in_(std::move(other.in_)) {
  other.fd_ = -1;
}

bool Connection::Flush() {
  while (out_off_ < out_.size()) {
    ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                       MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return true;
}

bool Connection::Drain(std::vector<std::string>* payloads) {
  char buf[65536];
  bool alive = true;
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    alive = false;  // orderly close or hard error
    break;
  }
  size_t pos = 0;
  while (in_.size() - pos >= 4) {
    uint32_t len = 0;
    std::memcpy(&len, in_.data() + pos, 4);  // wire frames are little endian
    if (len > kMaxPayloadBytes) return false;
    if (in_.size() - pos - 4 < len) break;
    payloads->emplace_back(in_, pos + 4, len);
    pos += 4 + static_cast<size_t>(len);
  }
  in_.erase(0, pos);
  return alive;
}

std::string Frame(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out(4, '\0');
  std::memcpy(out.data(), &len, 4);
  out += payload;
  return out;
}

uint64_t PayloadRequestId(const std::string& payload) {
  uint64_t id = 0;
  if (payload.size() >= 10) std::memcpy(&id, payload.data() + 2, 8);
  return id;
}

PhaseResult RunOpenLoop(std::vector<Connection>* conns,
                        const std::vector<std::string>& frames,
                        uint64_t first_id, double rate_per_s, double drain_s) {
  // A 1 ns timer slack lets ppoll() wake at the due time instead of up
  // to the default 50 µs later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const size_t n = frames.size();
  const size_t nc = conns->size();
  PhaseResult result;
  result.outcomes.resize(n);
  if (n == 0) return result;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto period = std::chrono::duration<double>(1.0 / rate_per_s);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };
  std::vector<char> done(n, 0);
  std::vector<char> dead(nc, 0);
  size_t next = 0;
  size_t finished = 0;
  Clock::time_point drain_deadline = Clock::time_point::max();
  Clock::time_point last_answer = start;
  std::vector<pollfd> pfds(nc);
  std::vector<std::string> payloads;

  auto fail_conn = [&](size_t c) {
    if (dead[c]) return;
    dead[c] = 1;
    for (size_t i = c; i < next; i += nc) {
      if (!done[i]) {
        done[i] = 1;
        ++finished;
      }
    }
  };

  while (finished < n) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      size_t c = next % nc;
      result.outcomes[next].late_ms = MsBetween(due(next), now);
      if (dead[c]) {
        done[next] = 1;
        ++finished;
      } else {
        (*conns)[c].Queue(frames[next]);
      }
      ++next;
      if (next == n) {
        result.backlog_at_last_send = n - finished;
        drain_deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(drain_s));
      }
    }
    for (size_t c = 0; c < nc; ++c) {
      if (!dead[c] && (*conns)[c].WantsWrite() && !(*conns)[c].Flush()) {
        fail_conn(c);
      }
    }
    if (finished == n) break;
    if (next == n && now >= drain_deadline) break;

    Clock::time_point wake = next < n ? due(next) : drain_deadline;
    for (size_t c = 0; c < nc; ++c) {
      pfds[c].fd = dead[c] ? -1 : (*conns)[c].fd();
      pfds[c].events = static_cast<short>(
          POLLIN | ((*conns)[c].WantsWrite() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    // The generator sleeps until the next due time rather than
    // spinning: a spinning thread competes with the server's threads for
    // its CPU. How late it wakes is reported as generator lateness.
    timespec ts = ToTimespec(wake - now);
    int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw BenchError("ppoll(): " + std::string(strerror(errno)));
    }
    if (ready <= 0) continue;
    for (size_t c = 0; c < nc; ++c) {
      if (dead[c] || pfds[c].revents == 0) continue;
      if (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
        payloads.clear();
        bool alive = (*conns)[c].Drain(&payloads);
        Clock::time_point got = Clock::now();
        for (std::string& p : payloads) {
          uint64_t id = PayloadRequestId(p);
          if (id < first_id || id - first_id >= n) continue;
          size_t i = static_cast<size_t>(id - first_id);
          if (done[i]) continue;
          done[i] = 1;
          ++finished;
          result.outcomes[i].latency_ms = MsBetween(due(i), got);
          result.outcomes[i].payload = std::move(p);
          last_answer = got;
        }
        if (!alive) fail_conn(c);
      }
    }
  }
  result.wall_s =
      std::chrono::duration<double>(std::max(last_answer, due(n - 1)) - start)
          .count();
  return result;
}

Scrape ScrapeStats(Connection* conn, uint64_t request_id) {
  wire::StatsRequest req;
  req.request_id = request_id;
  req.want = wire::kStatsWantMetrics;
  conn->Queue(Frame(wire::EncodeStatsRequest(req)));
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  std::vector<std::string> payloads;
  std::string reply;
  while (reply.empty()) {
    if (Clock::now() > deadline) throw BenchError("STATS scrape timed out");
    if (conn->WantsWrite() && !conn->Flush()) {
      throw BenchError("STATS scrape: connection failed");
    }
    pollfd p{conn->fd(),
             static_cast<short>(POLLIN | (conn->WantsWrite() ? POLLOUT : 0)),
             0};
    ::poll(&p, 1, 100);
    payloads.clear();
    bool alive = conn->Drain(&payloads);
    for (std::string& pl : payloads) {
      if (PayloadRequestId(pl) == request_id) reply = std::move(pl);
    }
    if (!alive && reply.empty()) {
      throw BenchError("STATS scrape: server closed the connection");
    }
  }
  auto decoded = wire::DecodeStatsResponse(reply);
  if (!decoded.ok() || !decoded->has_metrics) {
    throw BenchError("STATS scrape: undecodable reply");
  }
  // MetricsSnapshot::ToJson prints one instrument per line:
  //   "name": 12            (counter, gauge)
  //   "name": {"count": 3, "sum": 1.5, "buckets": [...]}
  Scrape out;
  std::istringstream lines(decoded->metrics_json);
  std::string line;
  while (std::getline(lines, line)) {
    size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    size_t q2 = line.find('"', q1 + 1);
    size_t colon = line.find(':', q2);
    if (q2 == std::string::npos || colon == std::string::npos) continue;
    std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    std::string rest = line.substr(colon + 1);
    if (rest.find('{') != std::string::npos) {
      size_t c = rest.find("\"count\":");
      size_t s = rest.find("\"sum\":");
      if (c == std::string::npos || s == std::string::npos) continue;
      out[name + "#count"] = std::strtod(rest.c_str() + c + 8, nullptr);
      out[name + "#sum"] = std::strtod(rest.c_str() + s + 6, nullptr);
    } else {
      char* end = nullptr;
      double v = std::strtod(rest.c_str(), &end);
      if (end != rest.c_str()) out[name] = v;
    }
  }
  return out;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  if (a == after.end() || b == before.end()) return 0.0;
  return a->second - b->second;
}

double ProcessCpuSeconds(pid_t pid) {
  // The process's CPU-time clock has nanosecond resolution; utime and
  // stime in /proc/<pid>/stat come in 10 ms ticks.
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    throw BenchError("cannot read the CPU time of process " + std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessPeakRssMb(pid_t pid) {
  std::istringstream lines(
      ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw BenchError("no VmHWM in /proc/<pid>/status");
}

std::string ThreadStates(pid_t pid) {
  std::string out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream stat(task.path() / "stat"), wchan(task.path() / "wchan");
    std::string line, where;
    std::getline(stat, line);
    std::getline(wchan, where);
    const size_t paren = line.rfind(')');
    const char state = paren + 2 < line.size() ? line[paren + 2] : '?';
    if (!out.empty()) out += ' ';
    out += task.path().filename().string() + ':' + state + ':' + (where.empty() ? "-" : where);
  }
  return ec ? "unreadable" : out;
}

CpuJiffies ReadCpuJiffies() {
  std::istringstream in(ReadFile("/proc/stat"));
  std::string cpu;
  in >> cpu;
  CpuJiffies j;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

IdleSpinners::IdleSpinners() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned cpu = 0; cpu < n; ++cpu) {
    threads_.emplace_back([this, cpu] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
      // SCHED_IDLE yields only to threads of the same scheduling group.
      // With session autogroups, kernel threads and other sessions
      // compete with this one as a whole, so a spinner that never
      // sleeps can hold a per-CPU kernel thread off its CPU for seconds
      // (seen as workqueue lockups and an RCU stall, with server
      // start-ups blocked on I/O). A 10 us nap after every millisecond
      // of spinning gives them the CPU.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const timespec nap{0, 10000};
      while (!stop_.load(std::memory_order_relaxed)) {
        const Clock::time_point until = Clock::now() + std::chrono::milliseconds(1);
        while (Clock::now() < until) __builtin_ia32_pause();
        ::nanosleep(&nap, nullptr);
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace perfbench

// Served-side plumbing of the benchmark: the open-loop request
// generator, STATS scrapes, and /proc readings of the server process.
//
// The generator is one thread driving at most four non-blocking
// loopback connections. Every request has a due time on a fixed
// schedule; it is written when due whether or not earlier answers have
// arrived, and its latency runs from the due time to the moment its
// answer frame is complete, so a stall on either side is charged to
// every request it delays.
#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Any condition that must stop the benchmark. main() prints its
/// message as the one-line failure reason.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One loopback TCP connection in non-blocking mode, with the bytes
/// still to be written and the bytes read but not yet framed.
class Connection {
 public:
  explicit Connection(uint16_t port);
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&&) = delete;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Queues a complete frame ([u32 LE length][payload]).
  void Queue(const std::string& frame) { out_ += frame; }
  bool WantsWrite() const { return out_off_ < out_.size(); }
  /// Writes as much of the queue as the socket takes. False on a
  /// transport error.
  bool Flush();
  /// Reads what is available and appends every complete payload to
  /// `payloads`. False once the peer has closed or failed.
  bool Drain(std::vector<std::string>* payloads);

 private:
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
};

/// Length-prefixes a wire payload.
std::string Frame(const std::string& payload);

/// Request id carried at bytes [2, 10) of every wire payload.
uint64_t PayloadRequestId(const std::string& payload);

/// What happened to one scheduled request.
struct Outcome {
  double latency_ms = kInf;  ///< due time → answer complete; inf = none
  double late_ms = 0.0;      ///< due time → frame handed to the socket
  std::string payload;       ///< response payload (empty = none)
};

/// One open-loop phase: frames (already carrying request ids
/// first_id, first_id+1, ...) sent at `rate_per_s`, spread round-robin
/// over the connections.
struct PhaseResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  /// Requests due but unanswered when the last one was sent.
  size_t backlog_at_last_send = 0;
};

PhaseResult RunOpenLoop(std::vector<Connection>* conns,
                        const std::vector<std::string>& frames,
                        uint64_t first_id, double rate_per_s, double drain_s);

/// Registry snapshot from a STATS scrape: counters and gauges by name,
/// histograms as "<name>#count" and "<name>#sum".
using Scrape = std::map<std::string, double>;

/// Scrapes the server's registry over `conn`. No lineage request may
/// be in flight on it.
Scrape ScrapeStats(Connection* conn, uint64_t request_id);

/// after[name] - before[name] (0 for a name missing from either).
double Delta(const Scrape& before, const Scrape& after,
             const std::string& name);

/// User + system CPU time of a process, in seconds, read from its
/// CPU-time clock (clock_getcpuclockid) at nanosecond resolution.
double ProcessCpuSeconds(pid_t pid);
/// VmHWM of a process, in MiB (/proc/<pid>/status).
double ProcessPeakRssMb(pid_t pid);
/// Every thread of a process as "tid:state:wchan", space-separated
/// (/proc/<pid>/task); for diagnosing a server that stopped answering.
std::string ThreadStates(pid_t pid);

/// Machine-wide CPU jiffies from /proc/stat, for the steal share.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// While alive, keeps every CPU busy with one lowest-priority
/// (SCHED_IDLE) spinning thread each, pinned one per CPU. Any ordinary
/// thread of this session (the driver and the server it spawned) that
/// wakes preempts a spinner at once, so on a VM a wake-up never waits
/// for the hypervisor to reschedule a halted vCPU. Each spinner naps
/// briefly every millisecond so kernel threads get their CPU. The
/// spinners are threads of this process; the destructor joins them.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Exact percentile (nearest rank) of raw samples; inf counts as the
/// slowest possible value. `q` in [0, 1].
double Percentile(std::vector<double> samples, double q);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_

#ifndef PROVLIN_SERVER_SERVER_H_
#define PROVLIN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sync.h"
#include "common/timer.h"
#include "lineage/service.h"
#include "lineage/wire.h"
#include "server/frame.h"
#include "server/slow_log.h"

namespace provlin::server {

/// Tuning knobs for the network lineage server.
struct ServerOptions {
  /// TCP port to listen on (loopback). 0 = kernel-assigned ephemeral
  /// port; recover it with LineageServer::port() (tests, --port-file).
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed (the
  /// client sees EOF) — one bounded reader thread per live connection.
  size_t max_connections = 64;
  /// Admission-control bound on the central request queue. A request
  /// arriving while the queue holds this many gets a typed OVERLOADED
  /// response instead of a slot — queue memory stays bounded no matter
  /// how fast clients push (DESIGN.md §12 backpressure policy).
  size_t max_queue = 256;
  /// Most requests one dispatcher drain hands to LineageService::
  /// ExecuteBatch — the unit of cross-client plan sharing and probe
  /// dedup. Larger batches amortize more but add latency under load.
  size_t max_batch = 64;
  /// Frame-size ceiling, both directions (see frame.h).
  uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes;
  /// Worker pool / batching behaviour of the underlying LineageService.
  lineage::ServiceOptions service;
  /// Slow-request log threshold in milliseconds: a served request whose
  /// admission-to-encode total meets or exceeds it is appended to the
  /// structured JSON-lines log at `slow_log_path` (timeline, engine,
  /// shard fan-out, probe counts, and the EXPLAIN its own execution
  /// recorded — DESIGN.md §14). Negative disables the log entirely; 0
  /// logs every request (the round-trip test mode).
  double slow_request_ms = -1.0;
  std::string slow_log_path = "slow_requests.jsonl";
  /// Rotation bound for the slow-request log's live file.
  uint64_t slow_log_max_bytes = 4u << 20;
};

/// The network front-end of the lineage API: accepts loopback TCP
/// connections carrying length-prefixed wire.h frames, decodes
/// RequestEnvelopes, funnels them through one shared concurrent
/// LineageService (so concurrent clients ride the same plan cache,
/// probe memo, and worker pool), and streams each response frame back
/// on the requesting connection as its batch completes. Requests from
/// different connections are batched together — the §3.4 amortization
/// applied across the network boundary.
///
/// Responses to one connection preserve that connection's request
/// order per drain but may interleave across drains; clients match
/// responses to requests by the echoed request id, never by order.
///
/// Admission control: a bounded central queue. When it is full the
/// reader thread answers OVERLOADED immediately — nothing queues, no
/// memory grows, and the client gets a typed retryable signal
/// (Status::Unavailable through ResponseEnvelope::ToStatus).
///
/// Served-traffic counters (requests, responses, shed, bad frames,
/// scrapes, slow-log records) live only in the process-wide metrics
/// registry under server/*; read them from a registry snapshot.
///
/// Lock inventory (DESIGN.md §12): queue_mu_ guards the pending queue
/// and dispatcher wakeup; conns_mu_ guards the connection list; each
/// connection's write_mu serializes response frames. queue_mu_ and
/// conns_mu_ are leaves and never held together; write_mu is taken
/// with neither held.
class LineageServer {
 public:
  /// Engine registry: wire engine names ("naive", "indexproj") to
  /// borrowed engines, which must outlive the server and be safe for
  /// concurrent Query() (both in-tree engines are).
  using EngineMap =
      std::map<std::string, const lineage::LineageEngine*, std::less<>>;

  LineageServer(EngineMap engines, ServerOptions options = {});
  /// Stops and joins if still running.
  ~LineageServer();
  LineageServer(const LineageServer&) = delete;
  LineageServer& operator=(const LineageServer&) = delete;

  /// Binds, listens, and spawns the accept + dispatch threads.
  Status Start();

  /// Stops accepting, sheds everything still queued (typed OVERLOADED),
  /// drains in-flight batches, closes connections, joins all threads.
  /// Idempotent.
  void Stop();

  /// Bound port (valid after Start; the ephemeral port when port=0).
  uint16_t port() const { return port_; }

  /// Test hooks: freeze/unfreeze the dispatcher so admission control
  /// can be driven deterministically (queue fills while paused).
  void PauseDispatchForTest() EXCLUDES(queue_mu_);
  void ResumeDispatchForTest() EXCLUDES(queue_mu_);

 private:
  /// One live client connection: the socket, a write lock serializing
  /// response frames (dispatcher and reader both respond), and the
  /// reader thread draining request frames.
  struct Connection {
    Socket socket;
    common::Mutex write_mu{common::LockRank::kServerConnWrite};
    std::thread reader;
    std::atomic<bool> done{false};

    Status Write(std::string_view payload, uint32_t max_frame_bytes)
        EXCLUDES(write_mu);
  };

  /// One admitted request waiting for a dispatcher drain.
  struct Pending {
    std::shared_ptr<Connection> conn;
    lineage::wire::RequestEnvelope envelope;
    WallTimer admitted;  ///< request_ms measures admission → response
    /// Queue phase (admission → dispatcher dequeue), stamped by the
    /// dispatcher as it pulls the request off the queue.
    double queue_ms = 0.0;
  };

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  /// Answers one STATS scrape inline on the reader thread — a scrape
  /// never enters the dispatch queue, so it cannot be blocked by (or
  /// block) request dispatch.
  void HandleStatsScrape(const std::shared_ptr<Connection>& conn,
                         std::string_view payload);
  void DispatchLoop();
  void ExecuteDrain(std::vector<Pending> drain);
  /// Queue admission: true = queued, false = shed (caller answers
  /// OVERLOADED).
  bool Submit(Pending pending) EXCLUDES(queue_mu_);
  /// The one place server/queue_depth is written: every enqueue,
  /// dequeue, and shed path updates the gauge while still holding
  /// queue_mu_, so it can never go stale against queue_.size().
  void UpdateQueueDepthLocked() REQUIRES(queue_mu_);
  void ReapFinishedConnections() EXCLUDES(conns_mu_);
  /// Appends one slow-request record: the timeline, and the EXPLAIN
  /// the request's own execution recorded (null from engines that keep
  /// none, and for failed requests).
  void LogSlowRequest(const Pending& pending,
                      const lineage::wire::RequestTimeline& timeline,
                      const lineage::ServiceResponse& response);

  EngineMap engines_;
  ServerOptions options_;
  lineage::LineageService service_;
  /// Non-null iff options_.slow_request_ms >= 0 and the log opened.
  /// While it is, every request is marked for an EXPLAIN record.
  std::unique_ptr<SlowRequestLog> slow_log_;

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  common::Mutex queue_mu_{common::LockRank::kServerQueue};
  common::CondVar queue_cv_;
  std::deque<Pending> queue_ GUARDED_BY(queue_mu_);
  bool paused_ GUARDED_BY(queue_mu_) = false;

  mutable common::Mutex conns_mu_{common::LockRank::kServerConnections};
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  std::thread accept_thread_;
  std::thread dispatch_thread_;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_SERVER_H_

#ifndef PROVLIN_SERVER_SERVER_H_
#define PROVLIN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sync.h"
#include "lineage/service.h"
#include "lineage/wire.h"
#include "server/frame.h"
#include "server/slow_log.h"

namespace provlin::server {

/// Options of the network lineage server.
struct ServerOptions {
  /// TCP port to listen on (loopback). 0 = kernel-assigned ephemeral
  /// port; recover it with LineageServer::port() (tests, --port-file).
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed (the
  /// client sees EOF). Each live connection has one thread, so this
  /// bounds the server's thread count.
  size_t max_connections = 64;
  /// Frame-size ceiling, both directions (see frame.h).
  uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes;
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
/// connections carrying length-prefixed wire.h frames and serves each
/// connection on its own thread. That thread reads a frame, decodes the
/// RequestEnvelope, runs it through lineage::ExecuteRequest against the
/// engine it names, encodes the answer and writes it, then reads the
/// next frame. A request never changes threads. Requests share work
/// through the engines themselves: IndexProj's template cache (the
/// §3.4 amortization) is engine-wide.
///
/// Answers on one connection come back in its request order; clients
/// still match them by the echoed request id. Flow control is per
/// connection: a client that floods or stops reading fills only its own
/// socket buffers and blocks only its own thread, and one slow request
/// delays only the requests behind it on its connection.
///
/// Served-traffic counters (requests, responses, bad frames, scrapes,
/// slow-log records) live only in the process-wide metrics registry
/// under server/*; read them from a registry snapshot.
///
/// Lock inventory (DESIGN.md §12): conns_mu_ guards the connection list
/// and is a leaf. Only its connection's thread writes a socket, so
/// response writes take no lock.
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

  /// Binds, listens, and spawns the accept thread.
  Status Start();

  /// Stops accepting, shuts every connection down, and joins the
  /// connection threads. A request executing at that point finishes
  /// first; its answer goes to the closed socket. Idempotent.
  void Stop();

  /// Bound port (valid after Start; the ephemeral port when port=0).
  uint16_t port() const { return port_; }

 private:
  /// One live client connection: the socket and the thread that reads,
  /// executes and answers its requests.
  struct Connection {
    explicit Connection(uint32_t max_frame_bytes) : reader(max_frame_bytes) {}
    Socket socket;
    FrameReader reader;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ReadLoop(Connection* conn);
  /// Answers one STATS scrape on its connection's thread. A scrape runs
  /// no engine, so one sent on an idle connection is answered whatever
  /// the other connections are executing.
  void HandleStatsScrape(const Connection& conn, std::string_view payload);
  /// Executes one decoded request and writes its answer. The request's
  /// timeline starts (is admitted) here.
  void Serve(const Connection& conn,
             const lineage::wire::RequestEnvelope& envelope);
  void ReapFinishedConnections() EXCLUDES(conns_mu_);
  /// Appends one slow-request record: the timeline, and the EXPLAIN
  /// the request's own execution recorded (null from engines that keep
  /// none, and for failed requests).
  void LogSlowRequest(const lineage::wire::RequestEnvelope& envelope,
                      const lineage::wire::RequestTimeline& timeline,
                      const lineage::ServiceResponse& response);

  EngineMap engines_;
  ServerOptions options_;
  /// Non-null iff options_.slow_request_ms >= 0 and the log opened.
  /// While it is, every request is marked for an EXPLAIN record.
  std::unique_ptr<SlowRequestLog> slow_log_;

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable common::Mutex conns_mu_{common::LockRank::kServerConnections};
  std::vector<std::unique_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  std::thread accept_thread_;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_SERVER_H_

#include "server/server.h"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/tracing.h"

namespace provlin::server {
namespace {

namespace wire = lineage::wire;

struct ServerCounters {
  common::metrics::Counter* connections_accepted;
  common::metrics::Counter* connections_rejected;
  common::metrics::Counter* requests;
  common::metrics::Counter* responses_ok;
  common::metrics::Counter* responses_error;
  common::metrics::Counter* bad_frames;
  common::metrics::Counter* stats_requests;
  common::metrics::Counter* slow_logged;
  common::metrics::Histogram* request_ms;
  // Per-phase decomposition of every served request (DESIGN.md §14);
  // always on — the overhead budget is held by EXPERIMENTS.md's A/B run.
  common::metrics::Histogram* execute_ms;
  common::metrics::Histogram* serialize_ms;
  common::metrics::Histogram* write_ms;
};

ServerCounters& Counters() {
  static ServerCounters c = {
      common::metrics::GetCounter("server/connections_accepted"),
      common::metrics::GetCounter("server/connections_rejected"),
      common::metrics::GetCounter("server/requests"),
      common::metrics::GetCounter("server/responses_ok"),
      common::metrics::GetCounter("server/responses_error"),
      common::metrics::GetCounter("server/bad_frames"),
      common::metrics::GetCounter("server/stats_requests"),
      common::metrics::GetCounter("server/slow_requests_logged"),
      common::metrics::GetHistogram("server/request_ms"),
      common::metrics::GetHistogram("server/execute_ms"),
      common::metrics::GetHistogram("server/serialize_ms"),
      common::metrics::GetHistogram("server/write_ms"),
  };
  return c;
}

/// Engine-status → wire error taxonomy for failed requests.
wire::ErrorCode CodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return wire::ErrorCode::kNotFound;
    case StatusCode::kInvalidArgument:
      return wire::ErrorCode::kBadRequest;
    case StatusCode::kUnavailable:
      return wire::ErrorCode::kOverloaded;
    default:
      return wire::ErrorCode::kInternal;
  }
}

/// Best-effort request id out of a frame that failed full decode: the
/// id sits at a fixed offset (version u8, type u8, id u64), so even a
/// bad request can usually get an error matched to it.
uint64_t SalvageRequestId(std::string_view payload) {
  if (payload.size() < 10) return 0;
  uint64_t id = 0;
  std::memcpy(&id, payload.data() + 2, 8);
  return id;
}

}  // namespace

LineageServer::LineageServer(EngineMap engines, ServerOptions options)
    : engines_(std::move(engines)), options_(std::move(options)) {}

LineageServer::~LineageServer() { Stop(); }

Status LineageServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  if (options_.slow_request_ms >= 0 && slow_log_ == nullptr) {
    PROVLIN_ASSIGN_OR_RETURN(
        slow_log_, SlowRequestLog::Open(
                       {options_.slow_log_path, options_.slow_log_max_bytes}));
  }
  PROVLIN_ASSIGN_OR_RETURN(listener_, TcpListen(options_.port));
  PROVLIN_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
  running_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LineageServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // 1. Stop accepting. Shutting the listener down wakes the accept
  //    loop's poll at once, and the loop then sees stopping_. The fd is
  //    closed only after the join, so no thread touches a closed (or
  //    reused) descriptor.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // 2. Shut every connection down: a thread blocked in recv or send
  //    returns with EOF or an error, and one executing a request
  //    finishes it and then sees stopping_. Once they are joined
  //    nothing serves.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    common::MutexLock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) conn->socket.ShutdownBoth();
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void LineageServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listener_.fd();
    pfd.events = POLLIN;
    int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) {
      ReapFinishedConnections();
      continue;
    }
    Result<Socket> accepted = Accept(listener_);
    if (!accepted.ok()) {
      if (stopping_.load()) break;
      PROVLIN_LOG(Warning) << "accept failed: "
                           << accepted.status().ToString();
      continue;
    }
    ReapFinishedConnections();
    size_t live = 0;
    {
      common::MutexLock lock(conns_mu_);
      live = conns_.size();
    }
    if (live >= options_.max_connections) {
      // Bounded thread count: refuse by closing. The client sees EOF
      // before any frame — distinguishable from a served connection.
      Counters().connections_rejected->Increment();
      continue;  // `accepted` closes on scope exit
    }
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->socket = std::move(*accepted);
    Connection* served = conn.get();
    Counters().connections_accepted->Increment();
    {
      common::MutexLock lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    served->thread = std::thread([this, served] { ReadLoop(served); });
  }
}

void LineageServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    common::MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a finished thread has left ReadLoop, so the
  // join is immediate.
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void LineageServer::ReadLoop(Connection* conn) {
  std::string payload;
  while (!stopping_.load()) {
    Result<bool> frame = conn->reader.Read(conn->socket, &payload);
    if (!frame.ok()) {
      // Oversized or truncated frame: the stream cannot be resynced.
      Counters().bad_frames->Increment();
      break;
    }
    if (!*frame) break;  // clean EOF
    // Version gate before anything else is parsed (wire.h contract): a
    // frame in any other version gets a typed UNSUPPORTED_VERSION, not a
    // misparse.
    if (payload.empty() ||
        static_cast<uint8_t>(payload[0]) != wire::kWireVersion) {
      Counters().bad_frames->Increment();
      (void)WriteFrame(conn->socket,
                       wire::EncodeErrorResponse(
                           SalvageRequestId(payload),
                           wire::ErrorCode::kUnsupportedVersion,
                           "server speaks wire version " +
                               std::to_string(wire::kWireVersion)),
                       options_.max_frame_bytes);
      continue;
    }
    if (payload.size() >= 2 &&
        static_cast<uint8_t>(payload[1]) ==
            static_cast<uint8_t>(wire::MessageType::kStatsRequest)) {
      HandleStatsScrape(*conn, payload);
      continue;
    }
    Result<wire::RequestEnvelope> envelope =
        wire::DecodeRequestEnvelope(payload);
    if (!envelope.ok()) {
      Counters().bad_frames->Increment();
      (void)WriteFrame(conn->socket,
                       wire::EncodeErrorResponse(SalvageRequestId(payload),
                                                 wire::ErrorCode::kBadRequest,
                                                 envelope.status().ToString()),
                       options_.max_frame_bytes);
      continue;
    }
    Counters().requests->Increment();
    Serve(*conn, *envelope);
  }
  conn->done.store(true);
}

void LineageServer::HandleStatsScrape(const Connection& conn,
                                      std::string_view payload) {
  Result<wire::StatsRequest> request = wire::DecodeStatsRequest(payload);
  if (!request.ok()) {
    Counters().bad_frames->Increment();
    (void)WriteFrame(conn.socket,
                     wire::EncodeErrorResponse(SalvageRequestId(payload),
                                               wire::ErrorCode::kBadRequest,
                                               request.status().ToString()),
                     options_.max_frame_bytes);
    return;
  }
  // Scrapes are counted apart from served requests so the snapshot
  // balance invariant (responses_ok + responses_error == requests)
  // holds under concurrent scraping.
  Counters().stats_requests->Increment();
  wire::StatsResponse response;
  response.request_id = request->request_id;
  if ((request->want & wire::kStatsWantMetrics) != 0) {
    common::tracing::PublishTracingStats();
    common::metrics::MetricsSnapshot snap =
        common::metrics::MetricsRegistry::Global().Snapshot();
    response.has_metrics = true;
    response.prometheus_text = snap.ToPrometheusText();
    response.metrics_json = snap.ToJson();
  }
  if ((request->want & wire::kStatsWantTrace) != 0) {
    common::tracing::Tracer& tracer = common::tracing::Tracer::Global();
    response.has_trace = true;
    response.trace_json = tracer.ExportChromeTrace();
    response.trace_events = tracer.Snapshot().size();
    response.trace_dropped = tracer.dropped();
  }
  (void)WriteFrame(conn.socket, wire::EncodeStatsResponse(response),
                   options_.max_frame_bytes);
}

void LineageServer::Serve(const Connection& conn,
                          const wire::RequestEnvelope& envelope) {
  const WallTimer admitted;
  auto engine = engines_.find(envelope.engine);
  if (engine == engines_.end()) {
    Counters().responses_error->Increment();
    (void)WriteFrame(conn.socket,
                     wire::EncodeErrorResponse(
                         envelope.request_id, wire::ErrorCode::kBadRequest,
                         "unknown engine '" + envelope.engine + "'"),
                     options_.max_frame_bytes);
    return;
  }
  // While the slow log is open every request records its EXPLAIN, so
  // a logged record describes the execution that served it.
  const lineage::ServiceResponse r = lineage::ExecuteRequest(
      {engine->second, envelope.request, slow_log_ != nullptr});
  // Assemble the phase timeline for every request — recording is
  // always on (it feeds the server/*_ms histograms and the slow log);
  // the wire only carries it when the client asked. queue_ms and
  // dispatch_ms stay 0: the request never waits for another thread.
  wire::RequestTimeline timeline;
  timeline.execute_ms = r.exec_ms;
  timeline.rows_examined = r.rows_examined;
  if (r.status.ok()) {
    timeline.trace_probes = r.answer.timing.trace_probes;
    timeline.trace_descents = r.answer.timing.trace_descents;
  }
  uint64_t physical_probes = 0;
  for (const auto& [shard, cost] : r.breakdown.shards) {
    timeline.shards.push_back({shard, cost.probes, cost.descents, cost.rows});
    physical_probes += cost.probes;
  }
  timeline.sealed_probes = r.breakdown.sealed_probes;
  timeline.hot_probes = physical_probes >= r.breakdown.sealed_probes
                            ? physical_probes - r.breakdown.sealed_probes
                            : 0;
  // Total closes just before the frame encode: serialize_ms/write_ms
  // are structurally unknowable at encode time and stay 0 on the
  // wire (wire.h contract) — the histograms and slow log get the
  // real values below.
  timeline.total_ms = admitted.ElapsedMillis();
  std::string frame;
  WallTimer serialize_timer;
  if (r.status.ok()) {
    Counters().responses_ok->Increment();
    frame = wire::EncodeAnswerResponseV2(
        envelope.request_id, r.answer,
        envelope.want_timeline ? &timeline : nullptr);
  } else {
    Counters().responses_error->Increment();
    frame = wire::EncodeErrorResponse(envelope.request_id,
                                      CodeForStatus(r.status),
                                      r.status.ToString());
  }
  const double serialize_ms = serialize_timer.ElapsedMillis();
  ServerCounters& c = Counters();
  c.request_ms->Observe(admitted.ElapsedMillis());
  WallTimer write_timer;
  Status written = WriteFrame(conn.socket, frame, options_.max_frame_bytes);
  const double write_ms = write_timer.ElapsedMillis();
  if (!written.ok() && !stopping_.load()) {
    PROVLIN_LOG(Warning) << "response write failed (client gone?): "
                         << written.ToString();
  }
  c.execute_ms->Observe(timeline.execute_ms);
  c.serialize_ms->Observe(serialize_ms);
  c.write_ms->Observe(write_ms);
  if (slow_log_ != nullptr && timeline.total_ms >= options_.slow_request_ms) {
    timeline.serialize_ms = serialize_ms;
    timeline.write_ms = write_ms;
    // Re-stamp the total so it covers the serialize and write phases
    // the record now carries — the logged invariant is
    // queue + dispatch + execute + serialize + write <= total.
    timeline.total_ms = admitted.ElapsedMillis();
    LogSlowRequest(envelope, timeline, r);
  }
}

void LineageServer::LogSlowRequest(const wire::RequestEnvelope& env,
                                   const wire::RequestTimeline& timeline,
                                   const lineage::ServiceResponse& response) {
  const Status& status = response.status;
  const double now_s = std::chrono::duration<double>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  std::string rec = "{";
  rec += "\"ts\":" + std::to_string(now_s);
  rec += ",\"request_id\":" + std::to_string(env.request_id);
  rec += ",\"engine\":\"" + JsonEscape(env.engine) + "\"";
  rec += ",\"request\":\"" + JsonEscape(env.request.ToString()) + "\"";
  rec += ",\"status\":\"" +
         JsonEscape(status.ok() ? "OK" : status.ToString()) + "\"";
  rec += ",\"timeline\":{";
  rec += "\"queue_ms\":" + std::to_string(timeline.queue_ms);
  rec += ",\"dispatch_ms\":" + std::to_string(timeline.dispatch_ms);
  rec += ",\"execute_ms\":" + std::to_string(timeline.execute_ms);
  rec += ",\"serialize_ms\":" + std::to_string(timeline.serialize_ms);
  rec += ",\"write_ms\":" + std::to_string(timeline.write_ms);
  rec += ",\"total_ms\":" + std::to_string(timeline.total_ms);
  rec += "}";
  rec += ",\"trace_probes\":" + std::to_string(timeline.trace_probes);
  rec += ",\"trace_descents\":" + std::to_string(timeline.trace_descents);
  rec += ",\"rows_examined\":" + std::to_string(timeline.rows_examined);
  rec += ",\"hot_probes\":" + std::to_string(timeline.hot_probes);
  rec += ",\"sealed_probes\":" + std::to_string(timeline.sealed_probes);
  rec += ",\"shards\":[";
  for (size_t i = 0; i < timeline.shards.size(); ++i) {
    const wire::ShardCost& s = timeline.shards[i];
    if (i > 0) rec += ",";
    rec += "{\"shard\":" + std::to_string(s.shard) +
           ",\"probes\":" + std::to_string(s.probes) +
           ",\"descents\":" + std::to_string(s.descents) +
           ",\"rows\":" + std::to_string(s.rows) + "}";
  }
  rec += "]";
  rec += ",\"explain\":" + (status.ok() && response.explain.has_value()
                                 ? response.explain->ToJson()
                                 : std::string("null"));
  rec += "}";
  Status appended = slow_log_->Append(rec);
  if (appended.ok()) {
    Counters().slow_logged->Increment();
  } else {
    PROVLIN_LOG(Warning) << "slow-request log append failed: "
                         << appended.ToString();
  }
}

}  // namespace provlin::server

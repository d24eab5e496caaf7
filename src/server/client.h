#ifndef PROVLIN_SERVER_CLIENT_H_
#define PROVLIN_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "lineage/query.h"
#include "lineage/wire.h"
#include "server/frame.h"

namespace provlin::server {

/// Client half of the wire protocol: one TCP connection speaking
/// length-prefixed wire.h frames. Send() and Receive() are split so a
/// caller can pipeline — push a window of requests, then drain
/// responses, matching them by the echoed request id. The server
/// answers a connection's requests one at a time, so a caller that
/// pipelines must keep receiving while it sends: one that only sends
/// blocks its own connection once both socket buffers fill. One thread
/// may Send() while another Receive()s, as loadgen does; otherwise a
/// LineageClient is single-threaded. It is movable but not copyable.
class LineageClient {
 public:
  static Result<LineageClient> Connect(
      const std::string& host, uint16_t port,
      uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes);

  LineageClient(LineageClient&&) = default;
  LineageClient& operator=(LineageClient&&) = default;

  /// Sends one request frame; returns the request id it was assigned
  /// (monotonic per client, echoed back in the response).
  /// want_timeline=true asks the server to attach its per-phase
  /// RequestTimeline to the answer.
  Result<uint64_t> Send(std::string_view engine,
                        const lineage::LineageRequest& request,
                        bool want_timeline = false);

  /// Id the next Send() will use. Lets a pipelining caller register
  /// per-request state (e.g. intended send time) *before* the frame is
  /// on the wire — after Send() returns, the response may already have
  /// arrived on another thread.
  uint64_t next_request_id() const { return next_id_; }

  /// Blocks for the next response frame. NotFound-style failures come
  /// back as ok envelopes with ok=false (inspect `code`), transport
  /// failures (EOF, oversized frame) as a non-ok Result. EOF before any
  /// frame is Unavailable — the server closed or refused the
  /// connection.
  Result<lineage::wire::ResponseEnvelope> Receive();

  /// Send + Receive for the strictly synchronous case.
  Result<lineage::wire::ResponseEnvelope> Call(
      std::string_view engine, const lineage::LineageRequest& request,
      bool want_timeline = false);

  /// Synchronous STATS scrape: asks the server for a metrics
  /// snapshot and/or its tracer ring. `want` is a bitmask of wire::kStatsWantMetrics /
  /// kStatsWantTrace. Must not be interleaved with pipelined Send()s
  /// that still have responses in flight — the scrape reply would
  /// arrive out of band.
  Result<lineage::wire::StatsResponse> Stats(
      uint8_t want = lineage::wire::kStatsWantMetrics);

  const Socket& socket() const { return socket_; }

 private:
  LineageClient(Socket socket, uint32_t max_frame_bytes)
      : socket_(std::move(socket)),
        max_frame_bytes_(max_frame_bytes),
        reader_(max_frame_bytes) {}

  Socket socket_;
  uint32_t max_frame_bytes_;
  FrameReader reader_;
  uint64_t next_id_ = 1;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_CLIENT_H_

#ifndef PROVLIN_LINEAGE_WIRE_H_
#define PROVLIN_LINEAGE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lineage/engine.h"
#include "lineage/query.h"
#include "storage/serialize.h"

namespace provlin::lineage::wire {

/// Versioned binary encoding of the lineage request/answer API — the
/// one wire shape shared by the network server (src/server), the
/// load-generation client (tools/loadgen), and the codec tests.
/// LineageRequest::ToString() stays a log format only; nothing parses
/// it.
///
/// Every payload starts with a fixed two-byte header:
///
///   [version u8][message type u8][request id u64][body ...]
///
/// followed by a type-specific body built from the storage layer's
/// little-endian primitives (storage/serialize.h): fixed-width
/// integers, length-prefixed strings. The version byte is checked
/// before anything else is read, so a frame in a version this codec
/// does not speak is rejected as unsupported-version, never misparsed.
/// Request ids are client-assigned and echoed verbatim in the response,
/// which is what lets one connection pipeline many requests.
///
/// One version is live, v2: request = flags byte (bit 0: the client
/// wants a RequestTimeline appended to the answer) + engine +
/// LineageRequest; answer = LineageAnswer + optional timeline trailer;
/// error = code + message; plus the STATS message pair for scraping a
/// live server's metrics registry and tracer ring. A frame in any other
/// version is answered with a typed UNSUPPORTED_VERSION error.
inline constexpr uint8_t kWireVersion = 2;

/// Default ceiling on one frame's payload; the server and client both
/// reject frames whose length prefix exceeds their configured maximum
/// (DESIGN.md §12 — bounded memory per connection, no allocation from
/// an untrusted length).
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

enum class MessageType : uint8_t {
  kRequest = 1,        ///< client → server: RequestEnvelope
  kAnswer = 2,         ///< server → client: LineageAnswer for the echoed id
  kError = 3,          ///< server → client: typed ErrorCode + message
  kStatsRequest = 4,   ///< client → server: scrape request
  kStatsResponse = 5,  ///< server → client: registry/tracer snapshot
};

/// Request flags carried by request envelopes. Unknown bits are
/// rejected at decode time so a future flag cannot be silently
/// half-honored by an old server.
inline constexpr uint8_t kRequestFlagWantTimeline = 0x01;
inline constexpr uint8_t kKnownRequestFlags = kRequestFlagWantTimeline;

/// What a STATS scrape should include (bitmask; unknown bits rejected).
inline constexpr uint8_t kStatsWantMetrics = 0x01;
inline constexpr uint8_t kStatsWantTrace = 0x02;
inline constexpr uint8_t kKnownStatsWants = kStatsWantMetrics | kStatsWantTrace;

/// Typed failure taxonomy of the served API. kOverloaded is the
/// admission-control response: the server's bounded request queue was
/// full and the request was shed without executing (clients see it as
/// Status::Unavailable and may retry later).
enum class ErrorCode : uint8_t {
  kOverloaded = 1,
  kBadRequest = 2,
  kNotFound = 3,
  kInternal = 4,
  kUnsupportedVersion = 5,
};

std::string_view ErrorCodeName(ErrorCode code);

// --- request timeline ------------------------------------------------------

/// Per-shard slice of one request's probe work (DESIGN.md §14).
struct ShardCost {
  uint32_t shard = 0;
  uint64_t probes = 0;
  uint64_t descents = 0;
  uint64_t rows = 0;

  bool operator==(const ShardCost&) const = default;
};

/// Phase decomposition of one served request, measured on the server
/// and attached to an answer when the client set
/// kRequestFlagWantTimeline. All durations are wall milliseconds.
///
/// `serialize_ms` and `write_ms` are structurally unknowable at encode
/// time (the frame is finished before it is written to the socket), so
/// on the wire they are always 0; the server still measures both and
/// publishes them through the server/serialize_ms and server/write_ms
/// histograms and the slow-request log, where they are real. The
/// invariant queue+dispatch+execute+serialize+write ≤ total therefore
/// holds for every frame a client ever sees.
struct RequestTimeline {
  double queue_ms = 0;      ///< 0: the server has no request queue
  double dispatch_ms = 0;   ///< 0: a request never changes threads
  double execute_ms = 0;    ///< engine Query() wall time
  double serialize_ms = 0;  ///< answer-frame encode (0 on the wire)
  double write_ms = 0;      ///< socket write (0 on the wire)
  double total_ms = 0;      ///< admission → answer frame encoded

  uint64_t trace_probes = 0;    ///< logical B+-tree probes
  uint64_t trace_descents = 0;  ///< physical root-to-leaf descents
  uint64_t rows_examined = 0;
  uint64_t hot_probes = 0;     ///< probes answered by the hot tier
  uint64_t sealed_probes = 0;  ///< probes answered by sealed segments

  std::vector<ShardCost> shards;  ///< per-shard fan-out breakdown

  bool operator==(const RequestTimeline&) const = default;
};

// --- field-level codecs ----------------------------------------------------
// Raw request/answer bodies, without the envelope header. Shared by the
// envelope encoders below and addressable directly by tests.

void EncodeLineageRequest(const LineageRequest& request,
                          storage::BinaryWriter* w);
Result<LineageRequest> DecodeLineageRequest(storage::BinaryReader* r);

void EncodeLineageAnswer(const LineageAnswer& answer,
                         storage::BinaryWriter* w);
Result<LineageAnswer> DecodeLineageAnswer(storage::BinaryReader* r);

void EncodeRequestTimeline(const RequestTimeline& t, storage::BinaryWriter* w);
Result<RequestTimeline> DecodeRequestTimeline(storage::BinaryReader* r);

// --- envelopes -------------------------------------------------------------

/// One served request: which engine ("naive" | "indexproj") answers
/// which LineageRequest, matched to its response by `request_id`.
struct RequestEnvelope {
  uint64_t request_id = 0;
  std::string engine;
  LineageRequest request;
  /// Always kWireVersion: the one version encoders write and decoders
  /// accept.
  uint8_t version = kWireVersion;
  bool want_timeline = false;
};

/// One served response: the answer for `request_id`, or a typed error.
/// Answers may carry a RequestTimeline trailer (`has_timeline`).
struct ResponseEnvelope {
  uint64_t request_id = 0;
  bool ok = false;
  LineageAnswer answer;                    // meaningful iff ok
  ErrorCode code = ErrorCode::kInternal;   // meaningful iff !ok
  std::string message;                     // meaningful iff !ok
  bool has_timeline = false;               // answers only
  RequestTimeline timeline;                // meaningful iff has_timeline

  /// Status view of an error response: kOverloaded maps to the typed
  /// Status::Unavailable, kBadRequest/kUnsupportedVersion to
  /// InvalidArgument, kNotFound to NotFound, the rest to Internal.
  /// OK for an answer response.
  Status ToStatus() const;
};

/// One STATS scrape: which snapshots the client wants (bitmask of
/// kStatsWant*).
struct StatsRequest {
  uint64_t request_id = 0;
  uint8_t want = kStatsWantMetrics;
};

/// Snapshot of a live server: the metrics registry rendered both ways,
/// and/or the tracer ring as Chrome trace JSON plus its drop counters.
struct StatsResponse {
  uint64_t request_id = 0;
  bool has_metrics = false;
  std::string prometheus_text;  // meaningful iff has_metrics
  std::string metrics_json;     // meaningful iff has_metrics
  bool has_trace = false;
  std::string trace_json;       // meaningful iff has_trace
  uint64_t trace_events = 0;    // meaningful iff has_trace
  uint64_t trace_dropped = 0;   // meaningful iff has_trace
};

/// Full payloads (header + body), ready for framing.
std::string EncodeRequestEnvelope(const RequestEnvelope& envelope);
/// Answer frame; appends `timeline` when non-null.
std::string EncodeAnswerResponseV2(uint64_t request_id,
                                   const LineageAnswer& answer,
                                   const RequestTimeline* timeline);
std::string EncodeErrorResponse(uint64_t request_id, ErrorCode code,
                                std::string_view message);
std::string EncodeStatsRequest(const StatsRequest& request);
std::string EncodeStatsResponse(const StatsResponse& response);

/// Decoders reject wrong-version, wrong-type, truncated, and
/// trailing-garbage payloads with Corruption/InvalidArgument — they
/// never crash on adversarial bytes (fuzzed by tests/wire_test.cc).
Result<RequestEnvelope> DecodeRequestEnvelope(std::string_view payload);
Result<ResponseEnvelope> DecodeResponseEnvelope(std::string_view payload);
Result<StatsRequest> DecodeStatsRequest(std::string_view payload);
Result<StatsResponse> DecodeStatsResponse(std::string_view payload);

}  // namespace provlin::lineage::wire

#endif  // PROVLIN_LINEAGE_WIRE_H_

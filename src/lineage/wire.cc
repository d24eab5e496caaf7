#include "lineage/wire.h"

#include <cmath>
#include <utility>

namespace provlin::lineage::wire {
namespace {

/// Sanity ceiling on decoded element counts (runs, interest names,
/// bindings, index components, shard costs). The length prefixes below
/// are all validated against the remaining payload before anything is
/// allocated, but a count field costs only 4 bytes to forge — this cap
/// keeps a hostile frame from even *starting* a million-element loop.
constexpr uint32_t kMaxElements = 1u << 20;

Result<uint32_t> ReadCount(storage::BinaryReader* r, const char* what) {
  PROVLIN_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  if (n > kMaxElements) {
    return Status::Corruption(std::string("implausible ") + what +
                              " count " + std::to_string(n));
  }
  return n;
}

/// Durations on the wire must be finite and non-negative: a NaN or a
/// negative phase would poison every aggregate a client computes.
Result<double> ReadDurationMs(storage::BinaryReader* r, const char* what) {
  PROVLIN_ASSIGN_OR_RETURN(double ms, r->ReadDouble());
  if (!std::isfinite(ms) || ms < 0) {
    return Status::Corruption(std::string("implausible ") + what +
                              " duration");
  }
  return ms;
}

void EncodeIndex(const Index& index, storage::BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(index.length()));
  for (int32_t part : index.parts()) {
    w->WriteU32(static_cast<uint32_t>(part));
  }
}

Result<Index> DecodeIndex(storage::BinaryReader* r) {
  PROVLIN_ASSIGN_OR_RETURN(uint32_t n, ReadCount(r, "index component"));
  std::vector<int32_t> parts;
  parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PROVLIN_ASSIGN_OR_RETURN(uint32_t part, r->ReadU32());
    parts.push_back(static_cast<int32_t>(part));
  }
  return Index(std::move(parts));
}

void EncodePortRef(const workflow::PortRef& port, storage::BinaryWriter* w) {
  w->WriteString(port.processor);
  w->WriteString(port.port);
}

Result<workflow::PortRef> DecodePortRef(storage::BinaryReader* r) {
  workflow::PortRef port;
  PROVLIN_ASSIGN_OR_RETURN(port.processor, r->ReadString());
  PROVLIN_ASSIGN_OR_RETURN(port.port, r->ReadString());
  return port;
}

void EncodeTiming(const LineageTiming& t, storage::BinaryWriter* w) {
  w->WriteDouble(t.t1_ms);
  w->WriteDouble(t.t2_ms);
  w->WriteU64(t.trace_probes);
  w->WriteU64(t.trace_descents);
  w->WriteU64(t.graph_steps);
  w->WriteU8(t.plan_cache_hit ? 1 : 0);
}

Result<LineageTiming> DecodeTiming(storage::BinaryReader* r) {
  LineageTiming t;
  PROVLIN_ASSIGN_OR_RETURN(t.t1_ms, r->ReadDouble());
  PROVLIN_ASSIGN_OR_RETURN(t.t2_ms, r->ReadDouble());
  PROVLIN_ASSIGN_OR_RETURN(t.trace_probes, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.trace_descents, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.graph_steps, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(uint8_t hit, r->ReadU8());
  if (hit > 1) {
    return Status::Corruption("plan_cache_hit flag is " +
                              std::to_string(hit) + ", not 0/1");
  }
  t.plan_cache_hit = hit == 1;
  return t;
}

void WriteHeader(MessageType type, uint64_t request_id,
                 storage::BinaryWriter* w) {
  w->WriteU8(kWireVersion);
  w->WriteU8(static_cast<uint8_t>(type));
  w->WriteU64(request_id);
}

/// Reads and validates the version byte, which gates everything else:
/// an unsupported version is rejected before a single body byte is
/// parsed.
Status ReadVersion(storage::BinaryReader* r) {
  PROVLIN_ASSIGN_OR_RETURN(uint8_t version, r->ReadU8());
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kWireVersion) + ")");
  }
  return Status::OK();
}

/// Reads and validates the common header for a single expected type,
/// returning the request id.
Result<uint64_t> ReadHeader(storage::BinaryReader* r, MessageType expected) {
  PROVLIN_RETURN_IF_ERROR(ReadVersion(r));
  PROVLIN_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
  if (type != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected message type " +
                                   std::to_string(type));
  }
  return r->ReadU64();
}

Status ExpectEnd(const storage::BinaryReader& r) {
  if (!r.AtEnd()) {
    return Status::Corruption("trailing garbage after payload at offset " +
                              std::to_string(r.position()));
  }
  return Status::OK();
}

}  // namespace

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kInternal:
      return "INTERNAL";
    case ErrorCode::kUnsupportedVersion:
      return "UNSUPPORTED_VERSION";
  }
  return "UNKNOWN";
}

void EncodeLineageRequest(const LineageRequest& request,
                          storage::BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(request.runs.size()));
  for (const std::string& run : request.runs) w->WriteString(run);
  EncodePortRef(request.target, w);
  EncodeIndex(request.index, w);
  w->WriteU32(static_cast<uint32_t>(request.interest.size()));
  for (const std::string& name : request.interest) w->WriteString(name);
}

Result<LineageRequest> DecodeLineageRequest(storage::BinaryReader* r) {
  LineageRequest request;
  PROVLIN_ASSIGN_OR_RETURN(uint32_t nruns, ReadCount(r, "run"));
  request.runs.reserve(nruns);
  for (uint32_t i = 0; i < nruns; ++i) {
    PROVLIN_ASSIGN_OR_RETURN(std::string run, r->ReadString());
    request.runs.push_back(std::move(run));
  }
  PROVLIN_ASSIGN_OR_RETURN(request.target, DecodePortRef(r));
  PROVLIN_ASSIGN_OR_RETURN(request.index, DecodeIndex(r));
  PROVLIN_ASSIGN_OR_RETURN(uint32_t ninterest, ReadCount(r, "interest"));
  for (uint32_t i = 0; i < ninterest; ++i) {
    PROVLIN_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    // The interest set is encoded in sorted order (std::set iteration);
    // requiring strictly-increasing names on decode keeps the format
    // canonical — encode(decode(x)) == x for every accepted payload —
    // which the served byte-comparison tests and the fuzz harness rely
    // on. Found by fuzz_wire: an unsorted or duplicated sequence used
    // to decode fine but re-encode differently.
    if (!request.interest.empty() && name <= *request.interest.rbegin()) {
      return Status::Corruption(
          "interest names not in canonical sorted order");
    }
    request.interest.insert(std::move(name));
  }
  return request;
}

void EncodeLineageAnswer(const LineageAnswer& answer,
                         storage::BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(answer.bindings.size()));
  for (const LineageBinding& b : answer.bindings) {
    w->WriteString(b.run_id);
    EncodePortRef(b.port, w);
    EncodeIndex(b.index, w);
    w->WriteString(b.value_repr);
  }
  EncodeTiming(answer.timing, w);
}

Result<LineageAnswer> DecodeLineageAnswer(storage::BinaryReader* r) {
  LineageAnswer answer;
  PROVLIN_ASSIGN_OR_RETURN(uint32_t n, ReadCount(r, "binding"));
  answer.bindings.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    LineageBinding b;
    PROVLIN_ASSIGN_OR_RETURN(b.run_id, r->ReadString());
    PROVLIN_ASSIGN_OR_RETURN(b.port, DecodePortRef(r));
    PROVLIN_ASSIGN_OR_RETURN(b.index, DecodeIndex(r));
    PROVLIN_ASSIGN_OR_RETURN(b.value_repr, r->ReadString());
    answer.bindings.push_back(std::move(b));
  }
  PROVLIN_ASSIGN_OR_RETURN(answer.timing, DecodeTiming(r));
  return answer;
}

void EncodeRequestTimeline(const RequestTimeline& t,
                           storage::BinaryWriter* w) {
  w->WriteDouble(t.queue_ms);
  w->WriteDouble(t.dispatch_ms);
  w->WriteDouble(t.execute_ms);
  w->WriteDouble(t.serialize_ms);
  w->WriteDouble(t.write_ms);
  w->WriteDouble(t.total_ms);
  w->WriteU64(t.trace_probes);
  w->WriteU64(t.trace_descents);
  w->WriteU64(t.rows_examined);
  w->WriteU64(t.hot_probes);
  w->WriteU64(t.sealed_probes);
  w->WriteU32(static_cast<uint32_t>(t.shards.size()));
  for (const ShardCost& s : t.shards) {
    w->WriteU32(s.shard);
    w->WriteU64(s.probes);
    w->WriteU64(s.descents);
    w->WriteU64(s.rows);
  }
}

Result<RequestTimeline> DecodeRequestTimeline(storage::BinaryReader* r) {
  RequestTimeline t;
  PROVLIN_ASSIGN_OR_RETURN(t.queue_ms, ReadDurationMs(r, "queue"));
  PROVLIN_ASSIGN_OR_RETURN(t.dispatch_ms, ReadDurationMs(r, "dispatch"));
  PROVLIN_ASSIGN_OR_RETURN(t.execute_ms, ReadDurationMs(r, "execute"));
  PROVLIN_ASSIGN_OR_RETURN(t.serialize_ms, ReadDurationMs(r, "serialize"));
  PROVLIN_ASSIGN_OR_RETURN(t.write_ms, ReadDurationMs(r, "write"));
  PROVLIN_ASSIGN_OR_RETURN(t.total_ms, ReadDurationMs(r, "total"));
  PROVLIN_ASSIGN_OR_RETURN(t.trace_probes, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.trace_descents, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.rows_examined, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.hot_probes, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(t.sealed_probes, r->ReadU64());
  PROVLIN_ASSIGN_OR_RETURN(uint32_t nshards, ReadCount(r, "shard cost"));
  t.shards.reserve(nshards);
  for (uint32_t i = 0; i < nshards; ++i) {
    ShardCost s;
    PROVLIN_ASSIGN_OR_RETURN(s.shard, r->ReadU32());
    PROVLIN_ASSIGN_OR_RETURN(s.probes, r->ReadU64());
    PROVLIN_ASSIGN_OR_RETURN(s.descents, r->ReadU64());
    PROVLIN_ASSIGN_OR_RETURN(s.rows, r->ReadU64());
    t.shards.push_back(s);
  }
  return t;
}

Status ResponseEnvelope::ToStatus() const {
  if (ok) return Status::OK();
  std::string detail(ErrorCodeName(code));
  if (!message.empty()) detail += ": " + message;
  switch (code) {
    case ErrorCode::kOverloaded:
      return Status::Unavailable(std::move(detail));
    case ErrorCode::kBadRequest:
    case ErrorCode::kUnsupportedVersion:
      return Status::InvalidArgument(std::move(detail));
    case ErrorCode::kNotFound:
      return Status::NotFound(std::move(detail));
    case ErrorCode::kInternal:
      return Status::Internal(std::move(detail));
  }
  return Status::Internal(std::move(detail));
}

std::string EncodeRequestEnvelope(const RequestEnvelope& envelope) {
  storage::BinaryWriter w;
  WriteHeader(MessageType::kRequest, envelope.request_id, &w);
  w.WriteU8(envelope.want_timeline ? kRequestFlagWantTimeline : 0);
  w.WriteString(envelope.engine);
  EncodeLineageRequest(envelope.request, &w);
  return w.buffer();
}

std::string EncodeAnswerResponseV2(uint64_t request_id,
                                   const LineageAnswer& answer,
                                   const RequestTimeline* timeline) {
  storage::BinaryWriter w;
  WriteHeader(MessageType::kAnswer, request_id, &w);
  EncodeLineageAnswer(answer, &w);
  w.WriteU8(timeline != nullptr ? 1 : 0);
  if (timeline != nullptr) EncodeRequestTimeline(*timeline, &w);
  return w.buffer();
}

std::string EncodeErrorResponse(uint64_t request_id, ErrorCode code,
                                std::string_view message) {
  storage::BinaryWriter w;
  WriteHeader(MessageType::kError, request_id, &w);
  w.WriteU8(static_cast<uint8_t>(code));
  w.WriteString(message);
  return w.buffer();
}

std::string EncodeStatsRequest(const StatsRequest& request) {
  storage::BinaryWriter w;
  WriteHeader(MessageType::kStatsRequest, request.request_id, &w);
  w.WriteU8(request.want);
  return w.buffer();
}

std::string EncodeStatsResponse(const StatsResponse& response) {
  storage::BinaryWriter w;
  WriteHeader(MessageType::kStatsResponse, response.request_id, &w);
  w.WriteU8(response.has_metrics ? 1 : 0);
  if (response.has_metrics) {
    w.WriteString(response.prometheus_text);
    w.WriteString(response.metrics_json);
  }
  w.WriteU8(response.has_trace ? 1 : 0);
  if (response.has_trace) {
    w.WriteString(response.trace_json);
    w.WriteU64(response.trace_events);
    w.WriteU64(response.trace_dropped);
  }
  return w.buffer();
}

Result<RequestEnvelope> DecodeRequestEnvelope(std::string_view payload) {
  storage::BinaryReader r(payload);
  RequestEnvelope envelope;
  PROVLIN_ASSIGN_OR_RETURN(envelope.request_id,
                           ReadHeader(&r, MessageType::kRequest));
  PROVLIN_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
  if ((flags & ~kKnownRequestFlags) != 0) {
    return Status::Corruption("unknown request flags 0x" +
                              std::to_string(flags));
  }
  envelope.want_timeline = (flags & kRequestFlagWantTimeline) != 0;
  PROVLIN_ASSIGN_OR_RETURN(envelope.engine, r.ReadString());
  PROVLIN_ASSIGN_OR_RETURN(envelope.request, DecodeLineageRequest(&r));
  PROVLIN_RETURN_IF_ERROR(ExpectEnd(r));
  return envelope;
}

Result<ResponseEnvelope> DecodeResponseEnvelope(std::string_view payload) {
  storage::BinaryReader r(payload);
  ResponseEnvelope envelope;
  // Responses carry either message type; peek the header by hand since
  // ReadHeader pins one expected type.
  PROVLIN_RETURN_IF_ERROR(ReadVersion(&r));
  PROVLIN_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  PROVLIN_ASSIGN_OR_RETURN(envelope.request_id, r.ReadU64());
  if (type == static_cast<uint8_t>(MessageType::kAnswer)) {
    envelope.ok = true;
    PROVLIN_ASSIGN_OR_RETURN(envelope.answer, DecodeLineageAnswer(&r));
    PROVLIN_ASSIGN_OR_RETURN(uint8_t has, r.ReadU8());
    if (has > 1) {
      return Status::Corruption("timeline flag is " + std::to_string(has) +
                                ", not 0/1");
    }
    envelope.has_timeline = has == 1;
    if (envelope.has_timeline) {
      PROVLIN_ASSIGN_OR_RETURN(envelope.timeline, DecodeRequestTimeline(&r));
    }
  } else if (type == static_cast<uint8_t>(MessageType::kError)) {
    envelope.ok = false;
    PROVLIN_ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
    if (code < static_cast<uint8_t>(ErrorCode::kOverloaded) ||
        code > static_cast<uint8_t>(ErrorCode::kUnsupportedVersion)) {
      return Status::Corruption("unknown error code " + std::to_string(code));
    }
    envelope.code = static_cast<ErrorCode>(code);
    PROVLIN_ASSIGN_OR_RETURN(envelope.message, r.ReadString());
  } else {
    return Status::InvalidArgument("unexpected message type " +
                                   std::to_string(type));
  }
  PROVLIN_RETURN_IF_ERROR(ExpectEnd(r));
  return envelope;
}

Result<StatsRequest> DecodeStatsRequest(std::string_view payload) {
  storage::BinaryReader r(payload);
  StatsRequest request;
  PROVLIN_ASSIGN_OR_RETURN(request.request_id,
                           ReadHeader(&r, MessageType::kStatsRequest));
  PROVLIN_ASSIGN_OR_RETURN(request.want, r.ReadU8());
  if ((request.want & ~kKnownStatsWants) != 0) {
    return Status::Corruption("unknown stats-want bits 0x" +
                              std::to_string(request.want));
  }
  PROVLIN_RETURN_IF_ERROR(ExpectEnd(r));
  return request;
}

Result<StatsResponse> DecodeStatsResponse(std::string_view payload) {
  storage::BinaryReader r(payload);
  StatsResponse response;
  PROVLIN_ASSIGN_OR_RETURN(response.request_id,
                           ReadHeader(&r, MessageType::kStatsResponse));
  PROVLIN_ASSIGN_OR_RETURN(uint8_t has_metrics, r.ReadU8());
  if (has_metrics > 1) {
    return Status::Corruption("metrics flag is " + std::to_string(has_metrics) +
                              ", not 0/1");
  }
  response.has_metrics = has_metrics == 1;
  if (response.has_metrics) {
    PROVLIN_ASSIGN_OR_RETURN(response.prometheus_text, r.ReadString());
    PROVLIN_ASSIGN_OR_RETURN(response.metrics_json, r.ReadString());
  }
  PROVLIN_ASSIGN_OR_RETURN(uint8_t has_trace, r.ReadU8());
  if (has_trace > 1) {
    return Status::Corruption("trace flag is " + std::to_string(has_trace) +
                              ", not 0/1");
  }
  response.has_trace = has_trace == 1;
  if (response.has_trace) {
    PROVLIN_ASSIGN_OR_RETURN(response.trace_json, r.ReadString());
    PROVLIN_ASSIGN_OR_RETURN(response.trace_events, r.ReadU64());
    PROVLIN_ASSIGN_OR_RETURN(response.trace_dropped, r.ReadU64());
  }
  PROVLIN_RETURN_IF_ERROR(ExpectEnd(r));
  return response;
}

}  // namespace provlin::lineage::wire

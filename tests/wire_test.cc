// Codec tests for the versioned lineage wire protocol (lineage/wire.h):
// round-trips for every message shape, rejection of malformed payloads
// (wrong version, wrong type, truncation at every length, trailing
// garbage, forged element counts), and a seeded mutation-fuzz corpus —
// the decoder must never crash or over-allocate on adversarial bytes.

#include "lineage/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "lineage/engine.h"
#include "lineage/query.h"

namespace provlin::lineage::wire {
namespace {

LineageRequest MakeRequest() {
  LineageRequest req;
  req.runs = {"r0", "r1", "run-with-long-name-2"};
  req.target = workflow::PortRef{"P", "Y1"};
  req.index = Index({1, 2, 0});
  req.interest = {"workflow", "P", "Q"};
  return req;
}

LineageAnswer MakeAnswer() {
  LineageAnswer answer;
  LineageBinding b1;
  b1.run_id = "r0";
  b1.port = workflow::PortRef{"workflow", "X"};
  b1.index = Index({0, 1});
  b1.value_repr = "\"quoted\nvalue\"";
  LineageBinding b2;
  b2.run_id = "r1";
  b2.port = workflow::PortRef{"P", "A"};
  b2.index = Index();
  b2.value_repr = "e0";
  answer.bindings = {b1, b2};
  answer.timing.t1_ms = 1.25;
  answer.timing.t2_ms = 3.5;
  answer.timing.trace_probes = 17;
  answer.timing.trace_descents = 5;
  answer.timing.graph_steps = 42;
  answer.timing.plan_cache_hit = true;
  return answer;
}

TEST(WireTest, RequestEnvelopeRoundTrip) {
  RequestEnvelope envelope;
  envelope.request_id = 0xDEADBEEFCAFEBABEull;
  envelope.engine = "indexproj";
  envelope.request = MakeRequest();

  std::string payload = EncodeRequestEnvelope(envelope);
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, envelope.request_id);
  EXPECT_EQ(decoded->engine, "indexproj");
  EXPECT_EQ(decoded->request.runs, envelope.request.runs);
  EXPECT_EQ(decoded->request.target, envelope.request.target);
  EXPECT_EQ(decoded->request.index, envelope.request.index);
  EXPECT_EQ(decoded->request.interest, envelope.request.interest);
}

TEST(WireTest, EmptyRequestRoundTrip) {
  RequestEnvelope envelope;  // no runs, whole-value index, unfocused
  std::string payload = EncodeRequestEnvelope(envelope);
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->request.runs.empty());
  EXPECT_TRUE(decoded->request.interest.empty());
  EXPECT_EQ(decoded->request.index, Index());
}

TEST(WireTest, AnswerResponseRoundTrip) {
  LineageAnswer answer = MakeAnswer();
  std::string payload = EncodeAnswerResponseV2(7, answer, nullptr);
  auto decoded = DecodeResponseEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_TRUE(decoded->ok);
  EXPECT_TRUE(decoded->ToStatus().ok());
  ASSERT_EQ(decoded->answer.bindings.size(), answer.bindings.size());
  EXPECT_TRUE(decoded->answer.bindings[0] == answer.bindings[0]);
  EXPECT_TRUE(decoded->answer.bindings[1] == answer.bindings[1]);
  EXPECT_DOUBLE_EQ(decoded->answer.timing.t1_ms, 1.25);
  EXPECT_DOUBLE_EQ(decoded->answer.timing.t2_ms, 3.5);
  EXPECT_EQ(decoded->answer.timing.trace_probes, 17u);
  EXPECT_EQ(decoded->answer.timing.trace_descents, 5u);
  EXPECT_EQ(decoded->answer.timing.graph_steps, 42u);
  EXPECT_TRUE(decoded->answer.timing.plan_cache_hit);
}

TEST(WireTest, ErrorResponseRoundTripAndStatusMapping) {
  struct Case {
    ErrorCode code;
    StatusCode status;
  };
  const Case cases[] = {
      {ErrorCode::kOverloaded, StatusCode::kUnavailable},
      {ErrorCode::kBadRequest, StatusCode::kInvalidArgument},
      {ErrorCode::kNotFound, StatusCode::kNotFound},
      {ErrorCode::kInternal, StatusCode::kInternal},
      {ErrorCode::kUnsupportedVersion, StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    std::string payload = EncodeErrorResponse(99, c.code, "the message");
    auto decoded = DecodeResponseEnvelope(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->request_id, 99u);
    EXPECT_FALSE(decoded->ok);
    EXPECT_EQ(decoded->code, c.code);
    EXPECT_EQ(decoded->message, "the message");
    Status st = decoded->ToStatus();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), c.status) << ErrorCodeName(c.code);
  }
}

TEST(WireTest, ErrorCodeNamesAreStable) {
  EXPECT_EQ(ErrorCodeName(ErrorCode::kOverloaded), "OVERLOADED");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kBadRequest), "BAD_REQUEST");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kInternal), "INTERNAL");
  EXPECT_EQ(ErrorCodeName(ErrorCode::kUnsupportedVersion),
            "UNSUPPORTED_VERSION");
}

TEST(WireTest, RejectsWrongVersion) {
  RequestEnvelope envelope;
  envelope.engine = "naive";
  std::string payload = EncodeRequestEnvelope(envelope);
  // The retired v1 and a future version are both unsupported.
  for (uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    payload[0] = static_cast<char>(version);
    auto decoded = DecodeRequestEnvelope(payload);
    ASSERT_FALSE(decoded.ok()) << int{version};
    EXPECT_TRUE(decoded.status().IsInvalidArgument());
    EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos);
  }
}

RequestTimeline MakeTimeline() {
  RequestTimeline t;
  t.queue_ms = 0.25;
  t.dispatch_ms = 0.5;
  t.execute_ms = 2.75;
  t.total_ms = 3.5;  // serialize_ms/write_ms stay 0: the wire contract
  t.trace_probes = 17;
  t.trace_descents = 5;
  t.rows_examined = 120;
  t.hot_probes = 11;
  t.sealed_probes = 6;
  t.shards = {{0, 9, 3, 80}, {3, 8, 2, 40}};
  return t;
}

TEST(WireTest, V2RequestRoundTripCarriesTimelineFlag) {
  RequestEnvelope envelope;
  envelope.request_id = 77;
  envelope.engine = "indexproj";
  envelope.request = MakeRequest();
  envelope.want_timeline = true;
  std::string payload = EncodeRequestEnvelope(envelope);
  EXPECT_EQ(static_cast<uint8_t>(payload[0]), kWireVersion);
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->want_timeline);
  EXPECT_EQ(decoded->request.runs, envelope.request.runs);
  // Without the flag the frame differs only in the flags byte, right
  // after the 10-byte header.
  envelope.want_timeline = false;
  std::string plain = EncodeRequestEnvelope(envelope);
  ASSERT_EQ(plain.size(), payload.size());
  EXPECT_EQ(plain[10], 0);
  plain[10] = static_cast<char>(kRequestFlagWantTimeline);
  EXPECT_EQ(plain, payload);
}

TEST(WireTest, V2RequestRejectsUnknownFlagBits) {
  RequestEnvelope envelope;
  envelope.engine = "naive";
  envelope.want_timeline = true;
  std::string payload = EncodeRequestEnvelope(envelope);
  // The flags byte sits right after the 10-byte header.
  payload[10] = static_cast<char>(kKnownRequestFlags | 0x80);
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireTest, TimelineRoundTripOnV2Answer) {
  LineageAnswer answer = MakeAnswer();
  RequestTimeline timeline = MakeTimeline();
  std::string payload = EncodeAnswerResponseV2(21, answer, &timeline);
  auto decoded = DecodeResponseEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 21u);
  EXPECT_TRUE(decoded->ok);
  ASSERT_TRUE(decoded->has_timeline);
  EXPECT_EQ(decoded->timeline, timeline);
  ASSERT_EQ(decoded->timeline.shards.size(), 2u);
  EXPECT_EQ(decoded->timeline.shards[1], (ShardCost{3, 8, 2, 40}));
}

TEST(WireTest, V2AnswerWithoutTimeline) {
  std::string payload = EncodeAnswerResponseV2(22, MakeAnswer(), nullptr);
  auto decoded = DecodeResponseEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok);
  EXPECT_FALSE(decoded->has_timeline);
}

TEST(WireTest, V2AnswerRejectsBadTimelineMarker) {
  std::string payload = EncodeAnswerResponseV2(23, MakeAnswer(), nullptr);
  payload.back() = 2;  // has_timeline marker must be 0 or 1
  EXPECT_FALSE(DecodeResponseEnvelope(payload).ok());
}

TEST(WireTest, V2ErrorResponseRoundTrip) {
  std::string payload =
      EncodeErrorResponse(24, ErrorCode::kOverloaded, "queue full");
  auto decoded = DecodeResponseEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->code, ErrorCode::kOverloaded);
  EXPECT_EQ(decoded->message, "queue full");
}

TEST(WireTest, StatsRequestRoundTrip) {
  StatsRequest request;
  request.request_id = 31;
  request.want = kStatsWantMetrics | kStatsWantTrace;
  std::string payload = EncodeStatsRequest(request);
  auto decoded = DecodeStatsRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 31u);
  EXPECT_EQ(decoded->want, request.want);
}

TEST(WireTest, StatsRequestRejectsUnknownWantBits) {
  StatsRequest request;
  request.request_id = 32;
  std::string payload = EncodeStatsRequest(request);
  payload.back() = static_cast<char>(kKnownStatsWants | 0x40);
  EXPECT_FALSE(DecodeStatsRequest(payload).ok());
}

TEST(WireTest, StatsResponseRoundTrip) {
  StatsResponse response;
  response.request_id = 33;
  response.has_metrics = true;
  response.prometheus_text = "provlin_server_requests 5\n";
  response.metrics_json = "{\"counters\": {}}";
  response.has_trace = true;
  response.trace_json = "{\"traceEvents\": []}\n";
  response.trace_events = 128;
  response.trace_dropped = 3;
  std::string payload = EncodeStatsResponse(response);
  auto decoded = DecodeStatsResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 33u);
  EXPECT_TRUE(decoded->has_metrics);
  EXPECT_EQ(decoded->prometheus_text, response.prometheus_text);
  EXPECT_EQ(decoded->metrics_json, response.metrics_json);
  EXPECT_TRUE(decoded->has_trace);
  EXPECT_EQ(decoded->trace_json, response.trace_json);
  EXPECT_EQ(decoded->trace_events, 128u);
  EXPECT_EQ(decoded->trace_dropped, 3u);
}

TEST(WireTest, StatsRejectsTruncationAtEveryLength) {
  StatsRequest request;
  request.request_id = 34;
  request.want = kStatsWantMetrics;
  std::string req_payload = EncodeStatsRequest(request);
  for (size_t len = 0; len < req_payload.size(); ++len) {
    EXPECT_FALSE(DecodeStatsRequest(req_payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  StatsResponse response;
  response.request_id = 35;
  response.has_metrics = true;
  response.prometheus_text = "provlin_x 1\n";
  response.metrics_json = "{}";
  std::string rsp_payload = EncodeStatsResponse(response);
  for (size_t len = 0; len < rsp_payload.size(); ++len) {
    EXPECT_FALSE(DecodeStatsResponse(rsp_payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, TimelineRejectsTruncationAtEveryLength) {
  RequestTimeline timeline = MakeTimeline();
  std::string payload = EncodeAnswerResponseV2(36, MakeAnswer(), &timeline);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeResponseEnvelope(payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, RejectsWrongMessageType) {
  // An answer payload is not a request envelope and vice versa.
  std::string answer = EncodeAnswerResponseV2(1, MakeAnswer(), nullptr);
  EXPECT_FALSE(DecodeRequestEnvelope(answer).ok());
  std::string request = EncodeRequestEnvelope(RequestEnvelope{});
  EXPECT_FALSE(DecodeResponseEnvelope(request).ok());
}

TEST(WireTest, RejectsTruncationAtEveryLength) {
  RequestEnvelope envelope;
  envelope.request_id = 123;
  envelope.engine = "indexproj";
  envelope.request = MakeRequest();
  std::string payload = EncodeRequestEnvelope(envelope);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = DecodeRequestEnvelope(payload.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  std::string response = EncodeAnswerResponseV2(5, MakeAnswer(), nullptr);
  for (size_t len = 0; len < response.size(); ++len) {
    auto decoded = DecodeResponseEnvelope(response.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireTest, RejectsTrailingGarbage) {
  std::string payload = EncodeRequestEnvelope(RequestEnvelope{});
  payload += "extra";
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_FALSE(decoded.ok());
}

TEST(WireTest, RejectsForgedElementCounts) {
  // A short payload claiming 2^32-1 runs must be rejected from the
  // length check, not by attempting a four-billion-iteration loop.
  storage::BinaryWriter w;
  w.WriteU8(kWireVersion);
  w.WriteU8(static_cast<uint8_t>(MessageType::kRequest));
  w.WriteU64(1);
  w.WriteU8(0);  // flags
  w.WriteString("naive");
  w.WriteU32(0xFFFFFFFFu);  // runs count, no runs follow
  auto decoded = DecodeRequestEnvelope(w.buffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, FuzzedPayloadsNeverCrash) {
  // Mutation corpus: random byte edits, truncations, and extensions of
  // valid payloads. The decoders must return a Status — never crash,
  // never hang, never allocate from an untrusted count — and when the
  // version byte survives untouched but the decode succeeds, the
  // re-encode must be canonical (encode(decode(x)) == x only for the
  // untouched payload; mutants merely must not crash).
  Random rng(20260808);
  RequestEnvelope v2_envelope;
  v2_envelope.request_id = 45;
  v2_envelope.engine = "naive";
  v2_envelope.request = MakeRequest();
  v2_envelope.want_timeline = true;
  RequestTimeline timeline = MakeTimeline();
  StatsResponse stats_response;
  stats_response.request_id = 47;
  stats_response.has_metrics = true;
  stats_response.prometheus_text = "provlin_server_requests 5\n";
  stats_response.metrics_json = "{}";
  const std::string seeds[] = {
      EncodeRequestEnvelope(
          {42, "indexproj", MakeRequest()}),
      EncodeAnswerResponseV2(43, MakeAnswer(), nullptr),
      EncodeErrorResponse(44, ErrorCode::kOverloaded, "queue full"),
      EncodeRequestEnvelope(v2_envelope),
      EncodeAnswerResponseV2(45, MakeAnswer(), &timeline),
      EncodeStatsRequest({46, kStatsWantMetrics | kStatsWantTrace}),
      EncodeStatsResponse(stats_response),
  };
  for (const std::string& seed : seeds) {
    for (int i = 0; i < 2000; ++i) {
      std::string mutant = seed;
      switch (rng.Uniform(3)) {
        case 0: {  // flip 1-4 bytes
          uint64_t flips = 1 + rng.Uniform(4);
          for (uint64_t f = 0; f < flips; ++f) {
            mutant[rng.Uniform(mutant.size())] =
                static_cast<char>(rng.Uniform(256));
          }
          break;
        }
        case 1:  // truncate
          mutant.resize(rng.Uniform(mutant.size()));
          break;
        default:  // extend with junk
          mutant.append(1 + rng.Uniform(16), static_cast<char>(rng.Next()));
          break;
      }
      // Every decoder; all must be robust against every shape.
      (void)DecodeRequestEnvelope(mutant);
      (void)DecodeResponseEnvelope(mutant);
      (void)DecodeStatsRequest(mutant);
      (void)DecodeStatsResponse(mutant);
    }
  }
}

TEST(WireTest, CanonicalReencode) {
  // decode → encode reproduces the exact bytes (no alternative
  // encodings), which is what makes served-vs-in-process byte
  // comparison in server_test meaningful.
  RequestEnvelope envelope;
  envelope.request_id = 9;
  envelope.engine = "naive";
  envelope.request = MakeRequest();
  std::string payload = EncodeRequestEnvelope(envelope);
  auto decoded = DecodeRequestEnvelope(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeRequestEnvelope(*decoded), payload);

  std::string response = EncodeAnswerResponseV2(10, MakeAnswer(), nullptr);
  auto decoded_response = DecodeResponseEnvelope(response);
  ASSERT_TRUE(decoded_response.ok());
  EXPECT_EQ(EncodeAnswerResponseV2(10, decoded_response->answer, nullptr),
            response);

  // The flag and the timeline trailer re-encode canonically too.
  envelope.want_timeline = true;
  std::string v2_payload = EncodeRequestEnvelope(envelope);
  auto v2_decoded = DecodeRequestEnvelope(v2_payload);
  ASSERT_TRUE(v2_decoded.ok());
  EXPECT_EQ(EncodeRequestEnvelope(*v2_decoded), v2_payload);

  RequestTimeline timeline = MakeTimeline();
  std::string v2_response = EncodeAnswerResponseV2(11, MakeAnswer(),
                                                   &timeline);
  auto v2_decoded_response = DecodeResponseEnvelope(v2_response);
  ASSERT_TRUE(v2_decoded_response.ok());
  ASSERT_TRUE(v2_decoded_response->has_timeline);
  EXPECT_EQ(EncodeAnswerResponseV2(11, v2_decoded_response->answer,
                                   &v2_decoded_response->timeline),
            v2_response);
}

}  // namespace
}  // namespace provlin::lineage::wire

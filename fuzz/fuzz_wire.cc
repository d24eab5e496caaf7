// libFuzzer harness for the lineage wire codec (src/lineage/wire.h).
//
// The decoders are the server's first contact with untrusted bytes
// (DESIGN.md §12): they must return a Status on any input — never
// crash, hang, or allocate from an unvalidated count. On a successful
// decode the harness additionally re-encodes and asserts the canonical
// property encode(decode(x)) == x that server_test's byte comparison
// relies on.
//
// Built only under -DPROVLIN_FUZZ=ON (fuzz/CMakeLists.txt): with a
// fuzzer-capable clang this links -fsanitize=fuzzer; elsewhere it links
// the standalone driver, which replays the seed corpus and a bounded
// stream of mutants so the harness stays exercisable under GCC.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "lineage/wire.h"

using provlin::lineage::wire::DecodeRequestEnvelope;
using provlin::lineage::wire::DecodeResponseEnvelope;
using provlin::lineage::wire::DecodeStatsRequest;
using provlin::lineage::wire::DecodeStatsResponse;
using provlin::lineage::wire::EncodeAnswerResponseV2;
using provlin::lineage::wire::EncodeRequestEnvelope;
using provlin::lineage::wire::EncodeStatsRequest;
using provlin::lineage::wire::EncodeStatsResponse;

namespace {

/// Aborts with the violated property and a hex dump of the input, so a
/// failure is reproducible from the log alone (libFuzzer also saves the
/// input as a crash-* file; the standalone driver does not).
[[noreturn]] void Fail(const char* property, std::string_view payload) {
  std::fprintf(stderr, "fuzz_wire: canonical property violated: %s\n",
               property);
  std::fprintf(stderr, "  input (%zu bytes):", payload.size());
  for (size_t i = 0; i < payload.size() && i < 512; ++i) {
    std::fprintf(stderr, " %02x", static_cast<unsigned char>(payload[i]));
  }
  std::fprintf(stderr, "\n");
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view payload(reinterpret_cast<const char*>(data), size);

  // Every decoder sees every input: the dispatch byte decides which
  // path rejects it, and all rejections must be graceful.
  if (auto req = DecodeRequestEnvelope(payload); req.ok()) {
    std::string reencoded = EncodeRequestEnvelope(*req);
    if (reencoded != payload) Fail("EncodeRequestEnvelope(decode(x)) != x", payload);
  }
  if (auto resp = DecodeResponseEnvelope(payload); resp.ok() && resp->ok) {
    std::string reencoded = EncodeAnswerResponseV2(
        resp->request_id, resp->answer,
        resp->has_timeline ? &resp->timeline : nullptr);
    if (reencoded != payload) {
      Fail("EncodeAnswerResponseV2(decode(x)) != x", payload);
    }
  }
  if (auto stats_req = DecodeStatsRequest(payload); stats_req.ok()) {
    if (EncodeStatsRequest(*stats_req) != payload) {
      Fail("EncodeStatsRequest(decode(x)) != x", payload);
    }
  }
  if (auto stats_resp = DecodeStatsResponse(payload); stats_resp.ok()) {
    if (EncodeStatsResponse(*stats_resp) != payload) {
      Fail("EncodeStatsResponse(decode(x)) != x", payload);
    }
  }
  return 0;
}

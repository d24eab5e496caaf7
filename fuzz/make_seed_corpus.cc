// Generates the seed corpora for the codec fuzz harnesses from the same
// valid-payload shapes the unit tests mutate (tests/wire_test.cc
// FuzzedPayloadsNeverCrash, tests/segment_test.cc ditto): a fuzzer
// seeded with structurally valid frames reaches the deep decode paths
// in seconds instead of spending its budget rediscovering the header.
//
// Usage: make_seed_corpus <wire_dir> <segment_dir>
// Writes one file per seed into each directory (which must exist).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "lineage/wire.h"
#include "storage/segment.h"

namespace {

using namespace provlin;
using namespace provlin::lineage;
using namespace provlin::lineage::wire;
using storage::Datum;
using storage::IdPair;
using storage::IndexPath;
using storage::Row;
using storage::Segment;

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
  answer.timing.trace_probes = 17;
  return answer;
}

std::vector<std::string> WireSeeds() {
  RequestEnvelope v2_envelope;
  v2_envelope.request_id = 45;
  v2_envelope.engine = "naive";
  v2_envelope.request = MakeRequest();
  v2_envelope.want_timeline = true;

  RequestTimeline timeline;
  timeline.queue_ms = 0.5;
  timeline.execute_ms = 2.25;
  timeline.total_ms = 3.0;
  timeline.trace_probes = 11;
  timeline.shards = {{0, 5, 2, 40}, {1, 6, 3, 40}};

  StatsResponse stats_response;
  stats_response.request_id = 47;
  stats_response.has_metrics = true;
  stats_response.prometheus_text = "provlin_server_requests 5\n";
  stats_response.metrics_json = "{}";

  return {
      EncodeRequestEnvelope({42, "indexproj", MakeRequest()}),
      EncodeRequestEnvelope({}),
      EncodeAnswerResponseV2(43, MakeAnswer(), nullptr),
      EncodeErrorResponse(44, ErrorCode::kOverloaded, "queue full"),
      EncodeRequestEnvelope(v2_envelope),
      EncodeAnswerResponseV2(45, MakeAnswer(), &timeline),
      EncodeStatsRequest({46, kStatsWantMetrics | kStatsWantTrace}),
      EncodeStatsResponse(stats_response),
  };
}

std::vector<std::string> SegmentSeeds() {
  constexpr uint64_t kRun = 7;
  Random rng(51);
  // Two blocks and 20 rows of xform rows span three row blocks and three
  // out-view blocks, so the corpus starts with probes whose rows sit on
  // both sides of each block boundary, in-side nulls included.
  constexpr auto kXformRows =
      static_cast<int64_t>(2 * Segment::kRowsPerBlock + 20);
  std::vector<Row> xform;
  for (int64_t i = 0; i < kXformRows; ++i) {
    Row row(8);
    row[0] = Datum(static_cast<int64_t>(kRun));
    row[1] = Datum(i);
    IndexPath in_idx{static_cast<int32_t>(rng.Uniform(6))};
    IndexPath out_idx{static_cast<int32_t>(rng.Uniform(6)),
                      static_cast<int32_t>(rng.Uniform(6))};
    if (rng.Bernoulli(0.8)) {
      row[2] = Datum(IdPair{static_cast<uint32_t>(rng.Uniform(5)),
                            static_cast<uint32_t>(rng.Uniform(3))});
      row[3] = Datum(std::move(in_idx));
      row[4] = Datum(100 + i);
    }
    row[5] = Datum(IdPair{static_cast<uint32_t>(rng.Uniform(5)),
                          static_cast<uint32_t>(3 + rng.Uniform(3))});
    row[6] = Datum(std::move(out_idx));
    row[7] = Datum(200 + i);
    xform.push_back(std::move(row));
  }
  std::vector<Row> xfer;
  for (int64_t i = 0; i < 200; ++i) {
    Row row(6);
    row[0] = Datum(static_cast<int64_t>(kRun));
    row[1] = Datum(IdPair{static_cast<uint32_t>(rng.Uniform(4)),
                          static_cast<uint32_t>(rng.Uniform(2))});
    row[2] = Datum(IndexPath{static_cast<int32_t>(rng.Uniform(8))});
    row[3] = Datum(IdPair{static_cast<uint32_t>(4 + rng.Uniform(4)),
                          static_cast<uint32_t>(rng.Uniform(2))});
    row[4] = Datum(IndexPath{static_cast<int32_t>(rng.Uniform(8))});
    row[5] = Datum(i);
    xfer.push_back(std::move(row));
  }
  return {
      Segment::Build(Segment::Kind::kXform, kRun, xform)->bytes(),
      Segment::Build(Segment::Kind::kXfer, kRun, xfer)->bytes(),
      Segment::Build(Segment::Kind::kXform, kRun, {})->bytes(),
  };
}

bool WriteSeeds(const char* dir, const char* prefix,
                const std::vector<std::string>& seeds) {
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::string path =
        std::string(dir) + "/" + prefix + "_" + std::to_string(i) + ".bin";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "make_seed_corpus: cannot write %s\n",
                   path.c_str());
      return false;
    }
    std::fwrite(seeds[i].data(), 1, seeds[i].size(), f);
    std::fclose(f);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <wire_dir> <segment_dir>\n", argv[0]);
    return 2;
  }
  if (!WriteSeeds(argv[1], "wire", WireSeeds())) return 1;
  if (!WriteSeeds(argv[2], "segment", SegmentSeeds())) return 1;
  std::printf("make_seed_corpus: wire + segment seeds written\n");
  return 0;
}

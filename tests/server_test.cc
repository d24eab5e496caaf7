// Integration tests for the network lineage server (server/server.h):
// concurrent multi-client traffic must produce answers byte-identical
// to in-process engine queries (at 1 and 4 store shards), unknown
// engines and malformed frames get typed error responses, oversized
// frames drop the connection instead of allocating, and one connection
// cannot stall another: not by never reading its answers, and not by a
// slow request.
//
// No sleeps anywhere: a slow request is a HoldingEngine request that
// waits until the test releases it, and every wait that a stalled
// server would never end is bounded by a socket receive timeout, so a
// stall fails the test instead of hanging it.
//
// The server counts into the process-wide registry (server/*), which
// accumulates across the tests in this binary — every assertion is on a
// delta against a snapshot taken right after the server under test
// started.

#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/wire.h"
#include "provenance/trace_store.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/slow_log.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::server {
namespace {

using lineage::InterestSet;
using lineage::LineageAnswer;
using lineage::LineageRequest;
using provenance::TraceStoreOptions;
using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;
namespace wire = lineage::wire;

/// Serialized answer with the timing struct zeroed. Timing fields are
/// wall-clock and cache-state dependent — everything else (the
/// bindings, their order, every string and index) must survive the
/// network round-trip byte-for-byte.
std::string AnswerBytes(LineageAnswer answer) {
  answer.timing = lineage::LineageTiming{};
  return wire::EncodeAnswerResponseV2(0, answer, nullptr);
}

/// Answers like `inner`, but every request waits in Query() until
/// Release(): a slow request whose end the test decides.
class HoldingEngine : public lineage::LineageEngine {
 public:
  explicit HoldingEngine(const lineage::LineageEngine* inner)
      : inner_(inner) {}

  std::string_view name() const override { return "hold"; }

  Result<LineageAnswer> Query(const LineageRequest& request) const override {
    if (!entered_flag_.exchange(true)) entered_.set_value();
    released_.wait();
    return inner_->Query(request);
  }

  /// True once a request is waiting in Query(), false after `timeout`.
  bool WaitEntered(std::chrono::milliseconds timeout) {
    return entered_future_.wait_for(timeout) == std::future_status::ready;
  }

  /// Lets every waiting and later request through. Idempotent.
  void Release() {
    if (!release_flag_.exchange(true)) release_.set_value();
  }

 private:
  const lineage::LineageEngine* inner_;
  mutable std::atomic<bool> entered_flag_{false};
  mutable std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::atomic<bool> release_flag_{false};
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

/// A served workbench: runs executed, both engines registered (and
/// "hold", a HoldingEngine over indexproj), server listening on an
/// ephemeral loopback port. `before` is the registry snapshot all
/// assertions diff against.
struct Served {
  Served() = default;
  Served(Served&&) = default;
  /// Releases held requests first: the server's destructor joins the
  /// threads executing them, also when an assertion ended the test.
  ~Served() {
    if (hold != nullptr) hold->Release();
  }

  std::unique_ptr<Workbench> wb;
  std::unique_ptr<HoldingEngine> hold;
  std::unique_ptr<LineageServer> server;
  std::vector<std::string> runs;
  common::metrics::MetricsSnapshot before;
};

/// Bounds every blocking send and receive on `socket` by `timeout`: a
/// call that would wait longer fails with an I/O error instead.
void SetSocketTimeout(const Socket& socket, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  EXPECT_EQ(::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv),
            0);
  EXPECT_EQ(::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv),
            0);
}

/// How long a test waits for an answer a stalled server would never
/// send.
constexpr std::chrono::milliseconds kStallTimeout{10000};

/// Growth of the counter server/<what> since `s`'s server started.
uint64_t Delta(const Served& s, const std::string& what) {
  const std::string name = "server/" + what;
  return common::metrics::MetricsRegistry::Global().Snapshot().counter(name) -
         s.before.counter(name);
}

Served StartSynthetic(size_t shards, ServerOptions options = {}) {
  Served s;
  TraceStoreOptions store_options;
  store_options.shards = shards;
  auto wb = Workbench::Synthetic(5, store_options);
  EXPECT_TRUE(wb.ok());
  s.wb = std::move(*wb);
  for (int r = 0; r < 3; ++r) {
    std::string run = "r" + std::to_string(r);
    EXPECT_TRUE(s.wb->RunSynthetic(2 + r, run).ok()) << run;
    s.runs.push_back(run);
  }
  s.hold = std::make_unique<HoldingEngine>(s.wb->Engine("indexproj"));
  LineageServer::EngineMap engines;
  engines["naive"] = s.wb->Engine("naive");
  engines["indexproj"] = s.wb->Engine("indexproj");
  engines["hold"] = s.hold.get();
  s.server = std::make_unique<LineageServer>(std::move(engines), options);
  EXPECT_TRUE(s.server->Start().ok());
  s.before = common::metrics::MetricsRegistry::Global().Snapshot();
  return s;
}

/// The query mix both halves of the equivalence test execute: both
/// engines, several targets/indexes/focus sets, single- and multi-run.
struct NamedRequest {
  std::string engine;
  LineageRequest request;
};

std::vector<NamedRequest> BuildMix(const std::vector<std::string>& runs) {
  const std::pair<PortRef, Index> queries[] = {
      {{kWorkflowProcessor, "RESULT"}, Index()},
      {{kWorkflowProcessor, "RESULT"}, Index({1})},
      {{kWorkflowProcessor, "RESULT"}, Index({1, 2})},
  };
  const InterestSet interests[] = {{}, {testbed::kListGen}};
  std::vector<NamedRequest> mix;
  for (const char* engine : {"naive", "indexproj"}) {
    for (const auto& [port, q] : queries) {
      for (const InterestSet& interest : interests) {
        for (const std::string& run : runs) {
          mix.push_back(
              {engine, LineageRequest::SingleRun(run, port, q, interest)});
        }
        mix.push_back(
            {engine, LineageRequest::MultiRun(runs, port, q, interest)});
      }
    }
  }
  return mix;
}

/// Concurrent clients each replay the whole mix against the server and
/// assert every served answer is byte-identical to the in-process
/// answer from the same engine instance.
void ExpectServedMatchesInProcess(size_t shards) {
  Served s = StartSynthetic(shards);
  std::vector<NamedRequest> mix = BuildMix(s.runs);

  // In-process ground truth, computed before any served traffic so the
  // comparison cannot depend on cache state the server warmed.
  std::vector<std::string> want;
  want.reserve(mix.size());
  for (const NamedRequest& nr : mix) {
    auto answer = s.wb->Engine(nr.engine)->Query(nr.request);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    want.push_back(AnswerBytes(*answer));
  }

  constexpr size_t kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = LineageClient::Connect("127.0.0.1", s.server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t i = 0; i < mix.size(); ++i) {
        auto response = client->Call(mix[i].engine, mix[i].request);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (!response->ok) {
          failures[c] =
              "request " + std::to_string(i) + ": " + response->message;
          return;
        }
        if (AnswerBytes(response->answer) != want[i]) {
          failures[c] = "request " + std::to_string(i) + " (" +
                        mix[i].engine +
                        "): served answer diverges from in-process";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  EXPECT_EQ(Delta(s, "requests"), kClients * mix.size());
  EXPECT_EQ(Delta(s, "responses_ok"), kClients * mix.size());
  EXPECT_EQ(Delta(s, "responses_error"), 0u);
  EXPECT_EQ(Delta(s, "overload_shed"), 0u);
  EXPECT_EQ(Delta(s, "bad_frames"), 0u);
  s.server->Stop();
}

TEST(ServerTest, ServedMatchesInProcessUnsharded) {
  ExpectServedMatchesInProcess(1);
}

TEST(ServerTest, ServedMatchesInProcessFourShards) {
  ExpectServedMatchesInProcess(4);
}

TEST(ServerTest, UnknownEngineIsBadRequest) {
  Served s = StartSynthetic(1);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call(
      "bogus", LineageRequest::SingleRun(
                   "r0", {kWorkflowProcessor, "RESULT"}, Index()));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kBadRequest);
  EXPECT_NE(response->message.find("unknown engine"), std::string::npos)
      << response->message;
  EXPECT_TRUE(response->ToStatus().IsInvalidArgument());

  // A good request on the same connection still works afterwards.
  auto good = client->Call(
      "naive", LineageRequest::SingleRun(
                   "r0", {kWorkflowProcessor, "RESULT"}, Index()));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok);
  s.server->Stop();
}

TEST(ServerTest, UnknownTargetIsTypedNotFound) {
  Served s = StartSynthetic(1);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call(
      "indexproj", LineageRequest::SingleRun(
                       "r0", {kWorkflowProcessor, "NO_SUCH_PORT"}, Index()));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kNotFound);
  EXPECT_TRUE(response->ToStatus().IsNotFound());
  s.server->Stop();
}

TEST(ServerTest, WrongVersionFrameGetsTypedError) {
  Served s = StartSynthetic(1);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // Frames leading with a version byte the server does not speak: the
  // retired v1 and an unknown one. The id field is at the same offset
  // in every version, so the server can still echo it in the error.
  wire::RequestEnvelope envelope;
  envelope.request_id = 77;
  envelope.engine = "naive";
  FrameReader reader;
  for (uint8_t version : {uint8_t{1}, uint8_t{9}}) {
    std::string payload = wire::EncodeRequestEnvelope(envelope);
    payload[0] = static_cast<char>(version);
    ASSERT_TRUE(WriteFrame(*socket, payload).ok());

    std::string response_payload;
    auto got = reader.Read(*socket, &response_payload);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(*got);
    auto response = wire::DecodeResponseEnvelope(response_payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->code, wire::ErrorCode::kUnsupportedVersion)
        << int{version};
    EXPECT_EQ(response->request_id, 77u);
  }
  EXPECT_EQ(Delta(s, "bad_frames"), 2u);
  s.server->Stop();
}

TEST(ServerTest, MalformedPayloadGetsBadRequest) {
  Served s = StartSynthetic(1);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // Right version, right type, salvageable id, garbage body.
  std::string payload;
  payload.push_back(static_cast<char>(wire::kWireVersion));
  payload.push_back(static_cast<char>(wire::MessageType::kRequest));
  uint64_t id = 123;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload += "\xff\xff\xff\xff";
  ASSERT_TRUE(WriteFrame(*socket, payload).ok());

  std::string response_payload;
  auto got = FrameReader().Read(*socket, &response_payload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto response = wire::DecodeResponseEnvelope(response_payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(response->request_id, 123u);
  EXPECT_EQ(Delta(s, "bad_frames"), 1u);
  s.server->Stop();
}

TEST(ServerTest, OversizedFrameDropsConnection) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  Served s = StartSynthetic(1, options);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // The client-side ceiling is the default 16MB, so the frame goes out;
  // the server sees a length prefix above ITS ceiling and must drop the
  // connection (a mis-framed stream cannot be resynchronized).
  std::string huge(4096, 'x');
  ASSERT_TRUE(WriteFrame(*socket, huge).ok());

  // The connection dies without a response: clean EOF, or a reset if
  // the server closed with our payload still unread. Never a frame,
  // never a hang.
  std::string response_payload;
  auto got = FrameReader().Read(*socket, &response_payload);
  EXPECT_TRUE(!got.ok() || !*got);
}

TEST(ServerTest, TimelineAttachedOnlyWhenRequested) {
  Served s = StartSynthetic(4);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r1", {kWorkflowProcessor, "RESULT"}, Index({1}));

  // A call that does not ask for the timeline gets none.
  auto plain = client->Call("indexproj", req);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(plain->ok) << plain->message;
  EXPECT_FALSE(plain->has_timeline);

  // Asking for the timeline: same answer, plus the phase decomposition
  // with its invariants.
  auto timed = client->Call("indexproj", req, /*want_timeline=*/true);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  ASSERT_TRUE(timed->ok) << timed->message;
  ASSERT_TRUE(timed->has_timeline);
  EXPECT_EQ(AnswerBytes(timed->answer), AnswerBytes(plain->answer));

  const wire::RequestTimeline& tl = timed->timeline;
  EXPECT_GE(tl.queue_ms, 0.0);
  EXPECT_GE(tl.dispatch_ms, 0.0);
  EXPECT_GT(tl.total_ms, 0.0);
  // serialize/write are structurally unknowable at encode time and are
  // always 0 on the wire (wire.h contract).
  EXPECT_EQ(tl.serialize_ms, 0.0);
  EXPECT_EQ(tl.write_ms, 0.0);
  // The phases nest inside the total (all measured on the server from
  // the same admission timer; tiny fp slack only).
  EXPECT_LE(tl.queue_ms + tl.dispatch_ms + tl.execute_ms,
            tl.total_ms + 1e-6);
  // An indexproj query does physical probe work, attributed per shard;
  // the hot/sealed split must cover exactly the per-shard sum.
  EXPECT_GT(tl.trace_probes, 0u);
  ASSERT_FALSE(tl.shards.empty());
  uint64_t shard_probes = 0;
  for (const wire::ShardCost& sc : tl.shards) {
    EXPECT_LT(sc.shard, 4u);
    shard_probes += sc.probes;
  }
  EXPECT_GT(shard_probes, 0u);
  EXPECT_EQ(tl.hot_probes + tl.sealed_probes, shard_probes);
  s.server->Stop();
}

TEST(ServerTest, StatsScrapeAnsweredWhileRequestIsHeld) {
  // A scrape runs no engine: while one connection's request is held in
  // its engine, a scrape on a fresh connection still answers.
  Served s = StartSynthetic(1);
  auto busy = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(busy.ok());
  SetSocketTimeout(busy->socket(), kStallTimeout);
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index());
  ASSERT_TRUE(busy->Send("hold", req).ok());
  ASSERT_TRUE(s.hold->WaitEntered(kStallTimeout));

  auto scraper = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(scraper.ok());
  SetSocketTimeout(scraper->socket(), kStallTimeout);
  auto stats = scraper->Stats(wire::kStatsWantMetrics);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->has_metrics);
  EXPECT_NE(stats->prometheus_text.find("provlin_server_requests"),
            std::string::npos);
  EXPECT_FALSE(stats->has_trace);

  // Scrapes are accounted separately from requests: the request
  // counters still balance without them.
  EXPECT_EQ(Delta(s, "stats_requests"), 1u);
  EXPECT_EQ(Delta(s, "requests"), 1u);

  s.hold->Release();
  auto held = busy->Receive();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_TRUE(held->ok) << held->message;
  s.server->Stop();
}

TEST(ServerTest, ConcurrentScrapesDuringTraffic) {
  // TSan-hammered: several client threads serve real queries while a
  // scraper thread pulls STATS snapshots from its own connection. At
  // the end the served-request balance must hold exactly:
  // answers + errors == requests.
  Served s = StartSynthetic(4);
  std::vector<NamedRequest> mix = BuildMix(s.runs);

  constexpr size_t kClients = 3;
  constexpr int kScrapes = 25;
  std::vector<std::string> failures(kClients + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = LineageClient::Connect("127.0.0.1", s.server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t i = 0; i < mix.size(); ++i) {
        auto response =
            client->Call(mix[i].engine, mix[i].request, i % 2 == 0);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (!response->ok) {
          failures[c] = response->message;
          return;
        }
        if ((i % 2 == 0) != response->has_timeline) {
          failures[c] = "timeline presence does not match the request flag";
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto scraper = LineageClient::Connect("127.0.0.1", s.server->port());
    if (!scraper.ok()) {
      failures[kClients] = scraper.status().ToString();
      return;
    }
    for (int i = 0; i < kScrapes; ++i) {
      auto stats = scraper->Stats(wire::kStatsWantMetrics);
      if (!stats.ok()) {
        failures[kClients] = stats.status().ToString();
        return;
      }
      if (!stats->has_metrics || stats->prometheus_text.empty()) {
        failures[kClients] = "scrape returned no metrics";
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "thread " << i;
  }

  EXPECT_EQ(Delta(s, "requests"), kClients * mix.size());
  EXPECT_EQ(Delta(s, "responses_ok") + Delta(s, "responses_error"),
            Delta(s, "requests"));
  EXPECT_EQ(Delta(s, "stats_requests"), static_cast<uint64_t>(kScrapes));
  s.server->Stop();
}

TEST(ServerTest, SlowLogRecordsEveryRequestAtThresholdZero) {
  std::string log_path =
      ::testing::TempDir() + "/slow_requests_test.jsonl";
  std::remove(log_path.c_str());
  ServerOptions options;
  options.slow_request_ms = 0.0;  // log every served request
  options.slow_log_path = log_path;
  Served s = StartSynthetic(1, options);
  lineage::IndexProjLineage* engine = s.wb->IndexProj();

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}));
  auto indexed = client->Call("indexproj", req, /*want_timeline=*/true);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(indexed->ok) << indexed->message;
  auto naive = client->Call("naive", req);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(naive->ok);
  s.server->Stop();
  EXPECT_EQ(Delta(s, "slow_requests_logged"), 2u);

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  // First record: the indexproj request, with an EXPLAIN payload whose
  // step structure matches an in-process Explain of the same request.
  const std::string& rec = lines[0];
  EXPECT_NE(rec.find("\"engine\":\"indexproj\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"status\":\"OK\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"timeline\":{"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"queue_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"serialize_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"write_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"shards\":["), std::string::npos);
  lineage::ExplainResult explained;
  ASSERT_TRUE(engine->Explain(req, &explained).ok());
  // Wall-times differ run to run; the plan identity (every generated
  // trace query, in order) must match the CLI's exactly.
  EXPECT_NE(rec.find(explained.ToJson().substr(
                explained.ToJson().find("\"steps\":"))),
            std::string::npos)
      << rec;
  EXPECT_NE(rec.find("\"plan_cache_hit\":"), std::string::npos);
  // Second record: the naive engine keeps no EXPLAIN record → null.
  EXPECT_NE(lines[1].find("\"engine\":\"naive\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"explain\":null"), std::string::npos);
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

/// The unsigned number after the first `"key":` at or after `from`.
uint64_t JsonUintAfter(const std::string& json, size_t from,
                       const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

TEST(ServerTest, SlowLogExplainsTheExecutionThatServedTheRequest) {
  std::string log_path = ::testing::TempDir() + "/slow_explain_test.jsonl";
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
  ServerOptions options;
  options.slow_request_ms = 0.0;
  options.slow_log_path = log_path;
  // A fresh engine: the first request on this plan key builds the plan.
  Served s = StartSynthetic(1, options);
  common::metrics::MetricsSnapshot before =
      common::metrics::MetricsRegistry::Global().Snapshot();

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  // Unfocused (interest {}): every processor is interesting, so the
  // plan has many steps sharing one batch.
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}), {});
  auto served = client->Call("indexproj", req, /*want_timeline=*/true);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->ok) << served->message;
  ASSERT_TRUE(served->has_timeline);
  s.server->Stop();

  // One execution per request: logging it does not run it again.
  common::metrics::MetricsSnapshot after =
      common::metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(
      after.counter("lineage/queries") - before.counter("lineage/queries"),
      after.counter("service/requests") - before.counter("service/requests"));

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::string rec;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, rec)));
  const size_t explain_at = rec.find("\"explain\":{");
  ASSERT_NE(explain_at, std::string::npos) << rec;
  // The record is the served execution's: it built the plan, as the
  // answer says, and its plan-level probes and descents are the ones
  // the wire timeline reported.
  EXPECT_FALSE(served->answer.timing.plan_cache_hit);
  EXPECT_NE(rec.find("\"plan_cache_hit\":false", explain_at),
            std::string::npos)
      << rec;
  EXPECT_EQ(JsonUintAfter(rec, explain_at, "trace_probes"),
            served->timeline.trace_probes);
  EXPECT_EQ(JsonUintAfter(rec, explain_at, "trace_descents"),
            served->timeline.trace_descents);
  EXPECT_GT(served->timeline.trace_probes, 0u);
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

TEST(ServerTest, SlowLogRotatesAtByteBound) {
  std::string path = ::testing::TempDir() + "/slow_rotate_test.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  SlowRequestLog::Options options;
  options.path = path;
  options.max_bytes = 256;
  auto log = SlowRequestLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const std::string record(100, 'x');
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append("{\"r\":\"" + record + "\"}").ok());
  }
  EXPECT_EQ((*log)->records(), 5u);

  // The live file was rotated: it must hold fewer than max_bytes' worth
  // of records, and the previous generation sits at <path>.1.
  std::ifstream live(path);
  ASSERT_TRUE(live.is_open());
  std::string all((std::istreambuf_iterator<char>(live)),
                  std::istreambuf_iterator<char>());
  EXPECT_LE(all.size(), options.max_bytes);
  EXPECT_GT(all.size(), 0u);
  std::ifstream rotated(path + ".1");
  EXPECT_TRUE(rotated.is_open());
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServerTest, ClientThatNeverReadsDoesNotStallOthers) {
  Served s = StartSynthetic(1);
  // The flooder pipelines requests with large answers and never reads
  // one. With a small receive buffer its answers soon fill both socket
  // buffers, the server blocks writing them, and stops reading the
  // flooder's requests.
  auto flooder = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(flooder.ok());
  const int small_buffer = 4096;
  ASSERT_EQ(::setsockopt(flooder->socket().fd(), SOL_SOCKET, SO_RCVBUF,
                         &small_buffer, sizeof small_buffer),
            0);
  SetSocketTimeout(flooder->socket(), std::chrono::milliseconds(500));
  const LineageRequest whole = LineageRequest::MultiRun(
      s.runs, {kWorkflowProcessor, "RESULT"}, Index());
  // A send that stays blocked for the whole send timeout means the
  // server has stopped reading the flooder.
  constexpr size_t kMaxFlood = size_t{1} << 20;
  size_t sent = 0;
  while (sent < kMaxFlood && flooder->Send("indexproj", whole).ok()) ++sent;
  ASSERT_LT(sent, kMaxFlood) << "the server kept reading a client that "
                                "never reads its answers";

  // Every other connection is still answered.
  auto other = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(other.ok());
  SetSocketTimeout(other->socket(), kStallTimeout);
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}));
  for (int i = 0; i < 3; ++i) {
    auto response = other->Call("indexproj", req);
    ASSERT_TRUE(response.ok()) << "after " << sent << " flooded requests: "
                               << response.status().ToString();
    EXPECT_TRUE(response->ok) << response->message;
  }
  s.server->Stop();
}

TEST(ServerTest, SlowRequestDoesNotDelayOtherConnections) {
  Served s = StartSynthetic(1);
  auto slow = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(slow.ok());
  SetSocketTimeout(slow->socket(), kStallTimeout);
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}));
  ASSERT_TRUE(slow->Send("hold", req).ok());
  ASSERT_TRUE(s.hold->WaitEntered(kStallTimeout));

  // While that request is held in its engine, a request on another
  // connection is answered.
  auto fast = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(fast.ok());
  SetSocketTimeout(fast->socket(), kStallTimeout);
  auto answered = fast->Call("indexproj", req);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_TRUE(answered->ok) << answered->message;
  EXPECT_EQ(Delta(s, "responses_ok"), 1u);

  // Released, the slow request gets the same answer.
  s.hold->Release();
  auto held = slow->Receive();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(held->ok) << held->message;
  EXPECT_EQ(AnswerBytes(held->answer), AnswerBytes(answered->answer));
  s.server->Stop();
}

TEST(ServerTest, StopReturnsOnceHeldRequestIsReleased) {
  Served s = StartSynthetic(1);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  SetSocketTimeout(client->socket(), kStallTimeout);
  ASSERT_TRUE(client
                  ->Send("hold", LineageRequest::SingleRun(
                                     "r0", {kWorkflowProcessor, "RESULT"},
                                     Index()))
                  .ok());
  ASSERT_TRUE(s.hold->WaitEntered(kStallTimeout));

  // Stop shuts the connection down (the client reads EOF) and then
  // waits for the thread executing the held request.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    s.server->Stop();
    stopped.store(true);
  });
  auto closed = client->Receive();
  EXPECT_FALSE(closed.ok());
  EXPECT_FALSE(stopped.load());
  s.hold->Release();
  stopper.join();
  EXPECT_TRUE(stopped.load());
  // The held request was answered into the closed socket.
  EXPECT_EQ(Delta(s, "requests"), 1u);
  EXPECT_EQ(Delta(s, "responses_ok"), 1u);
}

TEST(ServerTest, TimelineCountsMatchInProcessEngine) {
  // A served request executes alone, with no probe memo, so its
  // timeline reports the probes and descents of an in-process query.
  Served s = StartSynthetic(4);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  for (const NamedRequest& nr : BuildMix(s.runs)) {
    auto local = s.wb->Engine(nr.engine)->Query(nr.request);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    auto served = client->Call(nr.engine, nr.request, /*want_timeline=*/true);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(served->ok) << served->message;
    ASSERT_TRUE(served->has_timeline);
    EXPECT_EQ(served->timeline.trace_probes, local->timing.trace_probes)
        << nr.engine << " " << nr.request.ToString();
    EXPECT_EQ(served->timeline.trace_descents, local->timing.trace_descents)
        << nr.engine << " " << nr.request.ToString();
    EXPECT_EQ(served->timeline.queue_ms, 0.0);
    EXPECT_EQ(served->timeline.dispatch_ms, 0.0);
  }
  s.server->Stop();
}

// Frame transport over a connected stream socket pair: what the reader
// decodes must not depend on how the bytes were split into writes.
std::pair<Socket, Socket> StreamPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

// The wire form of one frame: [payload length u32 LE][payload].
std::string FrameBytes(std::string_view payload) {
  const auto len = static_cast<uint32_t>(payload.size());
  std::string out(4, '\0');
  std::memcpy(out.data(), &len, 4);
  out.append(payload);
  return out;
}

TEST(FrameTest, WriteFrameSendsPrefixThenPayload) {
  auto ends = StreamPair();
  const std::string payload = "prefix and payload in one write";
  ASSERT_TRUE(WriteFrame(ends.second, payload).ok());
  ends.second.Close();
  std::string wire_bytes(64, '\0');
  size_t got = 0;
  while (true) {
    ssize_t r = ::recv(ends.first.fd(), wire_bytes.data() + got,
                       wire_bytes.size() - got, 0);
    ASSERT_GE(r, 0);
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  wire_bytes.resize(got);
  EXPECT_EQ(wire_bytes, FrameBytes(payload));
}

TEST(FrameTest, FrameWrittenOneByteAtATimeDecodes) {
  auto ends = StreamPair();
  const std::string payload = "a frame that arrives one byte per write";
  const std::string bytes = FrameBytes(payload);
  // The pause between bytes is what is under test: it lets the reader's
  // recvs return the frame in pieces.
  std::thread writer([fd = ends.second.fd(), &bytes] {
    for (char c : bytes) {
      ASSERT_EQ(::send(fd, &c, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));  // lint: allow(sleep)
    }
  });
  FrameReader reader;
  std::string got;
  auto read = reader.Read(ends.first, &got);
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(*read);
  EXPECT_EQ(got, payload);
}

TEST(FrameTest, FramesSentInOneWriteDecodeInOrder) {
  // Two frames in one write, then an empty frame and one larger than the
  // reader's buffer in another: each Read returns exactly one frame,
  // and the peer's close after the last is a clean EOF.
  auto ends = StreamPair();
  const std::string large(100 * 1024, 'x');
  const std::vector<std::string> payloads = {"first", "second", "", large};
  const std::string batch1 = FrameBytes(payloads[0]) + FrameBytes(payloads[1]);
  const std::string batch2 = FrameBytes(payloads[2]) + FrameBytes(payloads[3]);
  std::thread writer([&ends, &batch1, &batch2] {
    for (const std::string* batch : {&batch1, &batch2}) {
      size_t off = 0;
      while (off < batch->size()) {
        ssize_t w = ::send(ends.second.fd(), batch->data() + off,
                           batch->size() - off, MSG_NOSIGNAL);
        ASSERT_GT(w, 0);
        off += static_cast<size_t>(w);
      }
    }
    ends.second.Close();
  });
  FrameReader reader;
  std::vector<std::string> got;
  std::string payload;
  while (true) {
    auto read = reader.Read(ends.first, &payload);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    if (!*read) break;
    got.push_back(payload);
  }
  writer.join();
  EXPECT_EQ(got, payloads);
}

TEST(FrameTest, LengthAboveCeilingIsOutOfRange) {
  auto ends = StreamPair();
  const std::string bytes = FrameBytes(std::string(65, 'y'));
  ASSERT_EQ(::send(ends.second.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  FrameReader reader(/*max_frame_bytes=*/64);
  std::string payload;
  auto read = reader.Read(ends.first, &payload);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(payload.empty());
}

}  // namespace
}  // namespace provlin::server

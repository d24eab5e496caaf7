// Batch lineage throughput: queries/second of the concurrent
// LineageService at 1/2/4/8 worker threads, NI vs IndexProj, on a mixed
// batch of focused and partially unfocused queries over several runs.
//
// Expected shape: IndexProj scales near-linearly until the distinct-plan
// parallelism is exhausted (the shared plan cache serves every repeat
// from memory), NI scales with the trace-probe work per request.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/tracing.h"
#include "lineage/engine.h"
#include "lineage/service.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

int main() {
  using namespace provlin;
  using bench::CheckResult;

  constexpr int kL = 40;       // chain length (2*l+2 processors)
  constexpr int kD = 20;       // input list size
  constexpr int kRuns = 4;     // recorded runs in the store
  constexpr int kBatch = 256;  // requests per batch

  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "Batch lineage service throughput (l=%d, d=%d, %d runs, "
      "batch=%d requests)\n"
      "hardware threads: %u%s\n\n",
      kL, kD, kRuns, kBatch, cores,
      cores <= 1 ? "  (single-core host: expect speedup ~1.0x)" : "");

  auto wb = CheckResult(testbed::Workbench::Synthetic(kL), "workbench");
  std::vector<std::string> runs;
  for (int r = 0; r < kRuns; ++r) {
    std::string run = "r" + std::to_string(r);
    CheckResult(wb->RunSynthetic(kD + r, run), "run");
    runs.push_back(run);
  }

  // Interest sets of growing size along the chains (the Fig. 10 shape):
  // focused, |P|=8, |P|=16 — so requests carry real s2 work.
  auto interest_of = [&](int size) {
    lineage::InterestSet interest{testbed::kListGen};
    int added = 1;
    for (int k = kL; k >= 1 && added < size; --k) {
      interest.insert(testbed::ChainAProc(k));
      if (++added >= size) break;
      interest.insert(testbed::ChainBProc(k));
      ++added;
    }
    return interest;
  };
  const std::vector<lineage::InterestSet> interests = {
      interest_of(1), interest_of(8), interest_of(16)};
  const std::vector<Index> indices = {Index({1, 2}), Index({0, 1}),
                                      Index({2, 0}), Index({1, 0})};
  workflow::PortRef target{workflow::kWorkflowProcessor, "RESULT"};

  auto make_batch = [&](const lineage::LineageEngine* engine) {
    std::vector<lineage::ServiceRequest> batch;
    batch.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      size_t run = static_cast<size_t>(i) % runs.size();
      size_t q = static_cast<size_t>(i) % indices.size();
      size_t p = static_cast<size_t>(i) % interests.size();
      batch.push_back(
          {engine, lineage::LineageRequest::SingleRun(
                       runs[run], target, indices[q], interests[p])});
    }
    return batch;
  };

  bench::TablePrinter table({"engine", "threads", "best_ms", "qps",
                             "speedup", "hit_rate", "probes", "descents"});
  bench::JsonWriter json("service");
  const size_t thread_counts[] = {1, 2, 4, 8};
  for (const char* name : {"naive", "indexproj"}) {
    const lineage::LineageEngine* engine = wb->Engine(name);
    std::vector<lineage::ServiceRequest> batch = make_batch(engine);
    double base_qps = 0.0;
    for (size_t threads : thread_counts) {
      // One request per task: throughput scaling is the question, so
      // same-plan chaining onto one worker is turned off.
      lineage::ServiceOptions options;
      options.num_threads = threads;
      options.group_same_plan = false;
      lineage::LineageService service(options);

      // Warm caches once, then measure with the paper's best-of-five.
      (void)service.ExecuteBatch(batch);
      double best = CheckResult(
          bench::BestOfFive([&]() -> Status {
            std::vector<lineage::ServiceResponse> responses =
                service.ExecuteBatch(batch);
            for (const lineage::ServiceResponse& resp : responses) {
              PROVLIN_RETURN_IF_ERROR(resp.status);
            }
            return Status::OK();
          }),
          "batch");
      double qps = static_cast<double>(kBatch) / (best / 1000.0);
      if (threads == 1) base_qps = qps;
      lineage::ServiceMetrics m = service.metrics();
      char speedup[32], qps_str[32], rate[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", qps / base_qps);
      std::snprintf(qps_str, sizeof(qps_str), "%.0f", qps);
      std::snprintf(rate, sizeof(rate), "%.2f", m.plan_cache_hit_rate());
      uint64_t batches = m.batches ? m.batches : 1;
      table.AddRow({name, std::to_string(threads), bench::Ms(best), qps_str,
                    speedup, rate, bench::Num(m.trace_probes / batches),
                    bench::Num(m.trace_descents / batches)});
      // Thread-raced memo sharing makes these counters batch-schedule
      // dependent; record them but keep them out of the baseline check.
      json.Add(std::string(name) + "_t" + std::to_string(threads), best,
               m.trace_probes / batches, m.trace_descents / batches,
               /*deterministic=*/false);
    }
  }
  table.Print();

  // Descent amortization on the 256-request batch, measured
  // single-threaded so the counters are deterministic: frontier/plan-
  // batched probes plus the shared probe memo.
  std::printf(
      "\nDescent amortization (single-threaded, batch=%d requests):\n\n",
      kBatch);
  bench::TablePrinter amort(
      {"engine", "best_ms", "probes", "descents", "memo_hits"});
  for (const char* name : {"naive", "indexproj"}) {
    lineage::ServiceOptions options;
    options.num_threads = 1;
    options.group_same_plan = false;
    lineage::LineageService service(options);
    std::vector<lineage::ServiceRequest> batch = make_batch(wb->Engine(name));
    auto run_batch = [&]() -> Status {
      std::vector<lineage::ServiceResponse> responses =
          service.ExecuteBatch(batch);
      for (const lineage::ServiceResponse& resp : responses) {
        PROVLIN_RETURN_IF_ERROR(resp.status);
      }
      return Status::OK();
    };
    bench::CheckOk(run_batch(), "warm amortization batch");
    double best = CheckResult(bench::BestOfFive(run_batch),
                              "amortization batch");
    lineage::ServiceMetrics m = service.metrics();
    uint64_t batches = m.batches ? m.batches : 1;
    uint64_t probes = m.trace_probes / batches;
    uint64_t descents = m.trace_descents / batches;
    amort.AddRow({name, bench::Ms(best), bench::Num(probes),
                  bench::Num(descents),
                  bench::Num(m.probe_memo_hits / batches)});
    json.Add(std::string("batch256_") + name + "_batched", best, probes,
             descents);
  }
  amort.Print();

  // Shard-count axis (DESIGN.md §11): the same 256-request batch over
  // run-sharded stores. Logical probes are shard-invariant (asserted by
  // the baseline check via the single-threaded entries); descents may
  // only shrink as per-shard trees get shallower. The 4-thread rows
  // show whether fan-out across shards helps concurrent querying.
  std::printf("\nRun-sharded store (batch=%d requests):\n\n", kBatch);
  {
    bench::TablePrinter shard_table(
        {"engine", "shards", "threads", "best_ms", "qps", "probes",
         "descents"});
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      provenance::TraceStoreOptions store_options;
      store_options.shards = shards;
      auto swb = CheckResult(testbed::Workbench::Synthetic(kL, store_options),
                             "sharded workbench");
      for (int r = 0; r < kRuns; ++r) {
        CheckResult(swb->RunSynthetic(kD + r, "r" + std::to_string(r)),
                    "sharded run");
      }
      for (const char* name : {"naive", "indexproj"}) {
        const lineage::LineageEngine* engine = swb->Engine(name);
        std::vector<lineage::ServiceRequest> batch = make_batch(engine);
        for (size_t threads : {size_t{1}, size_t{4}}) {
          if (threads > 1 && std::string(name) == "naive") continue;
          lineage::ServiceOptions options;
          options.num_threads = threads;
          options.group_same_plan = false;
          lineage::LineageService service(options);
          (void)service.ExecuteBatch(batch);
          double best = CheckResult(
              bench::BestOfFive([&]() -> Status {
                std::vector<lineage::ServiceResponse> responses =
                    service.ExecuteBatch(batch);
                for (const lineage::ServiceResponse& resp : responses) {
                  PROVLIN_RETURN_IF_ERROR(resp.status);
                }
                return Status::OK();
              }),
              "sharded batch");
          lineage::ServiceMetrics m = service.metrics();
          uint64_t batches = m.batches ? m.batches : 1;
          char qps_str[32];
          std::snprintf(qps_str, sizeof(qps_str), "%.0f",
                        static_cast<double>(kBatch) / (best / 1000.0));
          shard_table.AddRow({name, std::to_string(shards),
                              std::to_string(threads), bench::Ms(best),
                              qps_str, bench::Num(m.trace_probes / batches),
                              bench::Num(m.trace_descents / batches)});
          // Single-threaded counters are deterministic (per-shard fan-out
          // tasks do fixed work each); multi-threaded ones race the memo.
          json.Add("shards" + std::to_string(shards) + "_" + name + "_t" +
                       std::to_string(threads),
                   best, m.trace_probes / batches, m.trace_descents / batches,
                   /*deterministic=*/threads == 1);
        }
      }
    }
    shard_table.Print();
  }

  // Span-tracing overhead on the concurrent service path (IndexProj,
  // 4 workers, the throughput batch), interleaved A/B: disabled-tracer
  // guards must be invisible, the enabled tracer pays per-span ring
  // writes from every worker thread through one mutex.
  {
    lineage::ServiceOptions options;
    options.num_threads = 4;
    options.group_same_plan = false;
    lineage::LineageService service(options);
    std::vector<lineage::ServiceRequest> batch =
        make_batch(wb->Engine("indexproj"));
    auto run_batch = [&]() -> Status {
      std::vector<lineage::ServiceResponse> responses =
          service.ExecuteBatch(batch);
      for (const lineage::ServiceResponse& resp : responses) {
        PROVLIN_RETURN_IF_ERROR(resp.status);
      }
      return Status::OK();
    };
    bench::CheckOk(run_batch(), "warm overhead batch");
    auto& tracer = common::tracing::Tracer::Global();
    auto [off_ms, on_ms] = CheckResult(
        bench::BestOfFiveInterleaved(
            [&]() -> Status {
              if (tracer.enabled()) tracer.Disable();
              return run_batch();
            },
            [&]() -> Status {
              if (!tracer.enabled()) tracer.Enable(1u << 16);
              return run_batch();
            },
            /*calls_per_round=*/2),
        "tracing overhead");
    tracer.Disable();
    std::printf(
        "\nSpan-tracing overhead (indexproj, 4 threads, batch=%d):\n"
        "  trace off %.3f ms   trace on %.3f ms   overhead %+.1f%%\n",
        kBatch, off_ms, on_ms,
        off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0);
    json.Add("overhead_indexproj_t4_traceoff", off_ms, 0, 0,
             /*deterministic=*/false);
    json.Add("overhead_indexproj_t4_traceon", on_ms, 0, 0,
             /*deterministic=*/false);
  }
  json.Write();
  return 0;
}

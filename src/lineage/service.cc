#include "lineage/service.h"

#include <chrono>
#include <map>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/tracing.h"
#include "provenance/trace_store.h"
#include "storage/table.h"

namespace provlin::lineage {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Requests sharing this key share an (engine, plan) pair — the grouping
/// granularity of ServiceOptions::group_same_plan. The interest set is
/// part of the plan identity, the run list is not.
std::tuple<const void*, std::string> GroupKey(const ServiceRequest& req) {
  std::string plan_repr = req.request.target.ToString() +
                          req.request.index.ToString() + "|";
  for (const std::string& p : req.request.interest) plan_repr += p + ",";
  return {static_cast<const void*>(req.engine), std::move(plan_repr)};
}

namespace metrics = common::metrics;

/// Registry handles for the service/* instruments: resolved once, then
/// bumped per executed request and by every batch's accumulation pass, so
/// `provlin stats` sees the process totals across all executors. Only the
/// service's own quantities live here; per-query costs are published
/// once, by the engines.
struct ServiceInstruments {
  metrics::Counter* batches = metrics::GetCounter("service/batches");
  metrics::Counter* requests = metrics::GetCounter("service/requests");
  metrics::Counter* failed = metrics::GetCounter("service/failed_requests");
  metrics::Histogram* queue_wait =
      metrics::GetHistogram("service/queue_wait_ms");
  metrics::Histogram* batch_wall =
      metrics::GetHistogram("service/batch_wall_ms");
};

ServiceInstruments& Mx() {
  static ServiceInstruments m;
  return m;
}

}  // namespace

std::string ServiceMetrics::ToString() const {
  std::string out;
  out += "requests=" + std::to_string(requests);
  out += " batches=" + std::to_string(batches);
  out += " failed=" + std::to_string(failed_requests);
  out += " plan_cache_hit_rate=" +
         std::to_string(plan_cache_hit_rate());
  out += " trace_probes=" + std::to_string(trace_probes);
  out += " trace_descents=" + std::to_string(trace_descents);
  out += " probe_memo_hits=" + std::to_string(probe_memo_hits) + "/" +
         std::to_string(probe_memo_lookups);
  out += " avg_queue_wait_ms=" +
         std::to_string(requests == 0 ? 0.0
                                      : total_queue_wait_ms /
                                            static_cast<double>(requests));
  out += " last_batch_wall_ms=" + std::to_string(last_batch_wall_ms);
  out += " per_thread_probes=[";
  for (size_t i = 0; i < per_thread_probes.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(per_thread_probes[i]);
  }
  out += "]";
  return out;
}

ServiceResponse ExecuteRequest(const ServiceRequest& req) {
  PROVLIN_TRACE_SPAN_VAR(req_span, "service/request");
  if (req_span.active()) req_span.SetArgs(req.request.ToString());
  ServiceResponse resp;
  storage::ThreadStats before = storage::ThisThreadStats();
  WallTimer exec_timer;
  if (req.engine == nullptr) {
    resp.status = Status::InvalidArgument("request has no engine");
  } else {
    // The breakdown scope makes the trace store attribute this request's
    // physical probes per shard and per tier into resp.breakdown; the
    // explain scope has a marked request's engine record its EXPLAIN
    // into resp.explain.
    provenance::ProbeBreakdownScope breakdown_scope(&resp.breakdown);
    ExplainScope explain_scope(req.explain ? &resp.explain : nullptr);
    Result<LineageAnswer> answer = req.engine->Query(req.request);
    if (answer.ok()) {
      resp.answer = std::move(answer).value();
    } else {
      resp.status = answer.status();
    }
  }
  resp.exec_ms = exec_timer.ElapsedMillis();
  resp.rows_examined =
      storage::ThisThreadStats().rows_examined - before.rows_examined;
  Mx().requests->Increment();
  if (!resp.status.ok()) Mx().failed->Increment();
  return resp;
}

LineageService::LineageService(ServiceOptions options)
    : options_(options), pool_(options.num_threads) {
  metrics_.per_thread_probes.assign(pool_.num_threads(), 0);
}

std::vector<ServiceResponse> LineageService::ExecuteBatch(
    const std::vector<ServiceRequest>& batch) {
  PROVLIN_TRACE_SPAN_VAR(batch_span, "service/batch");
  if (batch_span.active()) {
    batch_span.SetArgs("requests=" + std::to_string(batch.size()));
  }
  std::vector<ServiceResponse> responses(batch.size());
  if (batch.empty()) return responses;

  // Partition the batch into worker tasks: one task per plan group when
  // grouping is on (the group's requests run back-to-back on one worker,
  // so the plan is built once and reused without cache traffic), one
  // task per request otherwise.
  std::vector<std::vector<size_t>> tasks;
  if (options_.group_same_plan) {
    std::map<std::tuple<const void*, std::string>, size_t> group_slot;
    for (size_t i = 0; i < batch.size(); ++i) {
      auto key = GroupKey(batch[i]);
      auto it = group_slot.find(key);
      if (it == group_slot.end()) {
        group_slot.emplace(std::move(key), tasks.size());
        tasks.push_back({i});
      } else {
        tasks[it->second].push_back(i);
      }
    }
  } else {
    tasks.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) tasks.push_back({i});
  }

  // Per-worker probe accumulation: each worker only ever writes its own
  // slot (tasks on one worker run sequentially), so plain integers are
  // race-free here.
  std::vector<uint64_t> worker_probes(pool_.num_threads(), 0);

  // One probe memo for the whole batch: identical trace probes from
  // different requests are answered once. The memo outlives every worker
  // task (we block on `remaining` below before it goes out of scope).
  std::unique_ptr<provenance::ProbeMemo> memo;
  if (options_.dedupe_probes) {
    memo = std::make_unique<provenance::ProbeMemo>();
  }

  // Batch-completion latch. The annotated local struct lets the
  // analysis tie `remaining` to its mutex even though it lives on this
  // stack frame and is touched from every worker.
  struct BatchDone {
    common::Mutex mu{common::LockRank::kServiceBatchLatch};
    common::CondVar cv;
    size_t remaining GUARDED_BY(mu) = 0;
  } done;
  {
    common::MutexLock lock(done.mu);
    done.remaining = tasks.size();
  }

  Clock::time_point submit_time = Clock::now();
  WallTimer batch_timer;

  for (std::vector<size_t>& task_indices : tasks) {
    pool_.Submit([&, indices = std::move(task_indices)](size_t worker) {
      // Install the batch's shared memo for this worker task; queries it
      // runs consult/fill it through the trace store transparently.
      provenance::ProbeMemoScope memo_scope(memo.get());
      double queue_wait = MillisSince(submit_time);
      for (size_t i : indices) {
        // Each response slot belongs to one worker.
        const uint64_t probes_before = storage::ThisThreadStats().probes();
        responses[i] = ExecuteRequest(batch[i]);
        worker_probes[worker] +=
            storage::ThisThreadStats().probes() - probes_before;
        responses[i].queue_wait_ms = queue_wait;
        responses[i].worker = worker;
        // Only the first request of a chained group pays the queue wait;
        // the rest start immediately after their predecessor.
        queue_wait = 0.0;
      }
      {
        // Notify under the lock: the moment the count hits zero the
        // waiter may return and destroy the latch, so the last touch of
        // the condvar must happen-before the waiter's re-acquire.
        common::MutexLock lock(done.mu);
        if (--done.remaining == 0) done.cv.NotifyAll();
      }
    });
  }

  {
    common::MutexLock lock(done.mu);
    // Explicit predicate loop (not wait-with-lambda): the guarded read
    // of `remaining` stays in this locked scope for the analysis.
    while (done.remaining != 0) done.cv.Wait(done.mu);
  }
  double batch_wall_ms = batch_timer.ElapsedMillis();

  // Per-instance counters under the lock; the registry takes only the
  // service's own quantities (see ServiceInstruments).
  common::MutexLock lock(metrics_mu_);
  metrics_.batches += 1;
  metrics_.last_batch_wall_ms = batch_wall_ms;
  Mx().batches->Increment();
  Mx().batch_wall->Observe(batch_wall_ms);
  for (const ServiceResponse& resp : responses) {
    metrics_.requests += 1;
    metrics_.total_queue_wait_ms += resp.queue_wait_ms;
    Mx().queue_wait->Observe(resp.queue_wait_ms);
    if (!resp.status.ok()) {
      metrics_.failed_requests += 1;
      continue;
    }
    const LineageTiming& timing = resp.answer.timing;
    if (timing.plan_cache_hit) metrics_.plan_cache_hits += 1;
    metrics_.total_exec_ms += timing.total_ms();
    metrics_.trace_probes += timing.trace_probes;
    metrics_.trace_descents += timing.trace_descents;
  }
  for (size_t w = 0; w < worker_probes.size(); ++w) {
    metrics_.per_thread_probes[w] += worker_probes[w];
  }
  if (memo != nullptr) {
    metrics_.probe_memo_hits += memo->hits();
    metrics_.probe_memo_lookups += memo->lookups();
  }
  return responses;
}

ServiceMetrics LineageService::metrics() const {
  common::MutexLock lock(metrics_mu_);
  return metrics_;
}

void LineageService::ResetMetrics() {
  common::MutexLock lock(metrics_mu_);
  metrics_ = ServiceMetrics{};
  metrics_.per_thread_probes.assign(pool_.num_threads(), 0);
}

}  // namespace provlin::lineage

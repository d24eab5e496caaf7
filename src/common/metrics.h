#ifndef PROVLIN_COMMON_METRICS_H_
#define PROVLIN_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"

namespace provlin::common::metrics {

/// Process-wide observability substrate: named counters, gauges, and
/// fixed-bucket latency histograms, all registered in one
/// MetricsRegistry. Every tier (storage, provenance, lineage, service)
/// reports into the same registry, so one snapshot shows a query's whole
/// cost pyramid — trace probes over B+-tree descents over WAL appends —
/// with consistent names.
///
/// Naming convention (see DESIGN.md "Observability"): keys are
/// `<tier>/<what>` paths, lowercase, e.g. "storage/descents",
/// "lineage/plan_cache_hits", "service/queue_wait_ms". Prometheus
/// exposition rewrites '/' to '_' and prefixes "provlin_".
///
/// Hot-path cost: Counter::Add is one relaxed fetch_add on a sharded
/// cache-line-padded atomic; call sites cache the Counter* in a local
/// static, so steady state is pointer deref + relaxed add.

/// Monotonic counter, sharded to keep concurrent writers off each
/// other's cache lines. Value() sums the shards (racy-exact under
/// concurrent writers, exact when quiescent).
///
/// Deliberately lock-free: every field is a relaxed atomic, so nothing
/// here is mutex-guarded and the thread safety analysis has nothing to
/// check — the whole contract is "individual reads/writes are atomic,
/// cross-shard sums are racy-exact". The same holds for Gauge and
/// Histogram below; only the registry's name→instrument maps take a
/// capability.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  /// One cache line per shard; threads hash onto shards by id, so the
  /// common case (few hot threads) never contends a line.
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  static constexpr size_t kShards = 8;

  // One shard per thread, fixed at first use. Inline so Add() compiles
  // down to a TLS load plus a relaxed fetch_add — this sits on per-probe
  // and per-row paths.
  static size_t ShardIndex() {
    thread_local const size_t shard =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    return shard;
  }

  Shard shards_[kShards];
};

/// Last-write-wins signed gauge (e.g. "provenance/shards").
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// What HistogramSnapshot::Percentile reports for a histogram with no
/// observations. Deliberately 0.0 rather than NaN: every consumer
/// (loadgen's BENCH_served.json, bench reports, the stats command)
/// feeds percentiles straight into JSON or arithmetic, where a NaN
/// would silently poison the output, while 0.0 reads as "no latency
/// observed" and keeps monotonicity checks (p50 ≤ p95 ≤ p99) trivially
/// true. Callers that must distinguish "empty" from "all zeros" check
/// HistogramSnapshot::count themselves.
inline constexpr double kEmptyHistogramPercentile = 0.0;

/// Point-in-time histogram contents (value snapshot).
struct HistogramSnapshot {
  /// Upper bounds of the finite buckets; counts has bounds.size() + 1
  /// entries, the last one being the +Inf overflow bucket.
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  /// Estimated value at quantile q in [0, 1] (0.5 = p50, 0.99 = p99) by
  /// linear interpolation within the bucket the rank falls into — the
  /// Prometheus histogram_quantile estimator. Observations in the +Inf
  /// overflow bucket report the last finite bound (the estimate cannot
  /// exceed what the buckets can represent). An empty histogram (count
  /// == 0, or a snapshot with no buckets at all) returns the
  /// kEmptyHistogramPercentile sentinel for every q. This is how
  /// served-latency p50/p95/p99 are derived from the registry's
  /// fixed-bucket histograms (loadgen, bench reports).
  double Percentile(double q) const;
};

/// Fixed-bucket histogram. Bucket bounds are set at registration and
/// never change; Observe() is a branchless-ish scan over a handful of
/// bounds plus two relaxed adds. Not for hot per-probe paths — use it at
/// aggregation points (per query, per batch, per WAL append).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  HistogramSnapshot Snapshot() const;
  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets in milliseconds: 50 µs up to 10 s.
const std::vector<double>& DefaultLatencyBoundsMs();
/// Power-of-two size buckets (batch sizes, frontier widths): 1 .. 4096.
const std::vector<double>& DefaultSizeBounds();

/// Consistent point-in-time view of a whole registry, detached from the
/// live instruments: the API-stable surface that expositions, the CLI
/// `stats` command, bench JSON emissions, and the ServiceMetrics /
/// LineageTiming views are computed from.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value of a named counter, 0 when absent (an instrument nobody
  /// touched is indistinguishable from one at zero).
  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  /// Sum field of a named histogram, 0 when absent.
  double histogram_sum(std::string_view name) const;

  /// Prometheus text exposition format (name-sanitized, HELP-less).
  std::string ToPrometheusText() const;
  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": ...}.
  std::string ToJson(int indent = 0) const;
};

/// Named-instrument registry. Instruments are created on first use and
/// live for the registry's lifetime, so handles returned by Get* are
/// stable and may be cached in local statics at call sites.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every tier reports into.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// First registration fixes the bucket bounds; later calls with a
  /// different bounds vector get the existing instrument unchanged.
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<double>& bounds_ms =
                              DefaultLatencyBoundsMs());

  MetricsSnapshot Snapshot() const;
  /// Zeroes every instrument (names and bucket bounds survive).
  void Reset();

  size_t num_instruments() const;

 private:
  mutable SharedMutex mu_{LockRank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// Global-registry conveniences — the forms instrumentation sites use:
///   static auto* c = common::metrics::GetCounter("storage/descents");
///   c->Add(n);
inline Counter* GetCounter(std::string_view name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge* GetGauge(std::string_view name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline Histogram* GetHistogram(std::string_view name,
                               const std::vector<double>& bounds_ms =
                                   DefaultLatencyBoundsMs()) {
  return MetricsRegistry::Global().GetHistogram(name, bounds_ms);
}

}  // namespace provlin::common::metrics

#endif  // PROVLIN_COMMON_METRICS_H_

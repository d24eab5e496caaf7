#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace provlin::common::metrics {
namespace {

// Each TEST runs in its own process under gtest_discover_tests, so the
// global registry starts empty; tests that use it still pick distinct
// instrument names to stay robust under single-process runs.

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsSumExactlyWhenQuiescent) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, ObservationsLandInTheRightBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive upper bounds)
  h.Observe(5.0);    // <= 10
  h.Observe(100.5);  // overflow
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 5.0 + 100.5);
}

TEST(HistogramTest, EmptyPercentileReturnsDocumentedSentinel) {
  // An empty histogram reports kEmptyHistogramPercentile (0.0, not
  // NaN) at every quantile, so percentile consumers that feed straight
  // into JSON/arithmetic never see a poison value; "no data" vs "all
  // zeros" is distinguished by snap.count.
  Histogram h({1.0, 10.0, 100.0});
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 0u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(snap.Percentile(q), kEmptyHistogramPercentile) << "q=" << q;
  }
  // A default-constructed snapshot (no buckets at all) hits the same
  // sentinel instead of indexing into empty vectors.
  HistogramSnapshot none;
  EXPECT_EQ(none.Percentile(0.5), kEmptyHistogramPercentile);
  // And after Reset the histogram is "empty" again for Percentile too.
  h.Observe(5.0);
  EXPECT_GT(h.Snapshot().Percentile(0.5), 0.0);
  h.Reset();
  EXPECT_EQ(h.Snapshot().Percentile(0.5), kEmptyHistogramPercentile);
}

TEST(HistogramTest, ResetClearsCountsAndSum) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Reset();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.counts[0], 0u);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test/alpha");
  Counter* b = reg.GetCounter("test/alpha");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("test/beta"));
}

TEST(RegistryTest, FirstRegistrationFixesHistogramBounds) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("test/lat", {1.0, 2.0});
  Histogram* again = reg.GetHistogram("test/lat", {99.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, SnapshotIsDetachedFromLiveInstruments) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test/count");
  c->Add(5);
  MetricsSnapshot snap = reg.Snapshot();
  c->Add(10);
  EXPECT_EQ(snap.counter("test/count"), 5u);
  EXPECT_EQ(reg.Snapshot().counter("test/count"), 15u);
  // Absent names read as zero.
  EXPECT_EQ(snap.counter("test/never_registered"), 0u);
  EXPECT_EQ(snap.gauge("test/never_registered"), 0);
  EXPECT_DOUBLE_EQ(snap.histogram_sum("test/never_registered"), 0.0);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry reg;
  reg.GetCounter("test/a")->Add(3);
  reg.GetGauge("test/g")->Set(9);
  reg.GetHistogram("test/h", {1.0})->Observe(0.5);
  size_t before = reg.num_instruments();
  reg.Reset();
  EXPECT_EQ(reg.num_instruments(), before);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test/a"), 0u);
  EXPECT_EQ(snap.gauge("test/g"), 0);
  EXPECT_EQ(snap.histograms.at("test/h").count, 0u);
}

TEST(RegistryTest, ConcurrentGetAndBumpIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("test/shared")->Increment();
        reg.GetCounter("test/per_thread_" + std::to_string(t))->Increment();
        reg.GetHistogram("test/lat")->Observe(static_cast<double>(i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test/shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter("test/per_thread_" + std::to_string(t)),
              static_cast<uint64_t>(kIters));
  }
  EXPECT_EQ(snap.histograms.at("test/lat").count,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ExpositionTest, PrometheusTextGolden) {
  MetricsRegistry reg;
  reg.GetCounter("storage/index_probes")->Add(12);
  reg.GetGauge("server/queue_depth")->Set(2500);
  reg.GetHistogram("lineage/t2_ms", {1.0, 10.0})->Observe(0.5);
  reg.GetHistogram("lineage/t2_ms")->Observe(3.0);
  std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_EQ(text,
            "# TYPE provlin_storage_index_probes counter\n"
            "provlin_storage_index_probes 12\n"
            "# TYPE provlin_server_queue_depth gauge\n"
            "provlin_server_queue_depth 2500\n"
            "# TYPE provlin_lineage_t2_ms histogram\n"
            "provlin_lineage_t2_ms_bucket{le=\"1\"} 1\n"
            "provlin_lineage_t2_ms_bucket{le=\"10\"} 2\n"
            "provlin_lineage_t2_ms_bucket{le=\"+Inf\"} 2\n"
            "provlin_lineage_t2_ms_sum 3.5\n"
            "provlin_lineage_t2_ms_count 2\n");
}

TEST(ExpositionTest, JsonIsWellFormedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("a/b")->Add(1);
  reg.GetGauge("c")->Set(-2);
  reg.GetHistogram("d", {1.0})->Observe(0.5);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"a/b\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"c\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Crude but effective balance check for hand-rolled emitters.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(GlobalRegistryTest, FreeFunctionsHitTheGlobalRegistry) {
  Counter* c = GetCounter("metrics_test/global");
  c->Add(3);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().counter(
                "metrics_test/global"),
            3u);
}

}  // namespace
}  // namespace provlin::common::metrics

#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/string_util.h"

namespace provlin::common::metrics {

namespace {

/// Sanitizes a registry key into a Prometheus metric name: the exported
/// name must match [a-zA-Z_:][a-zA-Z0-9_:]*, so '/' and any other
/// punctuation become '_' and everything gets the provlin_ prefix.
std::string PrometheusName(const std::string& key) {
  std::string out = "provlin_";
  for (char c : key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::Observe(double v) {
  // Buckets are inclusive upper bounds (Prometheus `le` semantics): an
  // observation equal to a bound lands in that bound's bucket.
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0 || counts.empty()) return kEmptyHistogramPercentile;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation among `count` sorted observations.
  double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The +Inf bucket has no finite upper edge to interpolate toward:
    // report the last finite bound (or 0 for a bound-less histogram).
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    uint64_t in_bucket = counts[i];
    if (in_bucket == 0) return hi;
    double into = rank - static_cast<double>(cumulative - in_bucket);
    return lo + (hi - lo) * (into / static_cast<double>(in_bucket));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const std::vector<double>& DefaultLatencyBoundsMs() {
  static const std::vector<double> kBounds = {
      0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
      1000, 2500, 5000, 10000};
  return kBounds;
}

const std::vector<double>& DefaultSizeBounds() {
  static const std::vector<double> kBounds = {1,  2,   4,   8,   16,  32, 64,
                                              128, 256, 512, 1024, 2048, 4096};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  {
    ReaderLock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second.get();
  }
  WriterLock lock(mu_);
  auto [it, inserted] =
      counters_.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  {
    ReaderLock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second.get();
  }
  WriterLock lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<double>& bounds) {
  {
    ReaderLock lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second.get();
  }
  WriterLock lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(std::string(name), nullptr);
  if (inserted) it->second = std::make_unique<Histogram>(bounds);
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  ReaderLock lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  ReaderLock lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, g] : gauges_) g->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

size_t MetricsRegistry::num_instruments() const {
  ReaderLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

double MetricsSnapshot::histogram_sum(std::string_view name) const {
  auto it = histograms.find(std::string(name));
  return it == histograms.end() ? 0.0 : it->second.sum;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      out += pname + "_bucket{le=\"" + FormatDouble(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + FormatDouble(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string pad(static_cast<size_t>(indent < 0 ? 0 : indent), ' ');
  std::string pad2 = pad + "  ";
  std::string pad4 = pad2 + "  ";
  std::string out = "{\n";
  out += pad2 + "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad4 + "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n" + pad2 + "},\n";
  out += pad2 + "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad4 + "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n" + pad2 + "},\n";
  out += pad2 + "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad4 + "\"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + FormatDouble(h.sum) +
           ", \"buckets\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n" + pad2 + "}\n";
  out += pad + "}";
  return out;
}

}  // namespace provlin::common::metrics

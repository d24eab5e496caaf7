#include "common/tracing.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/string_util.h"

namespace provlin::common::tracing {

namespace metrics = ::provlin::common::metrics;

namespace {

/// Per-thread span nesting depth (only meaningful while enabled; a span
/// opened under one Enable() and closed under another is dropped at
/// Record() via its generation stamp, so its depth never surfaces).
thread_local uint16_t t_depth = 0;

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(size_t capacity) {
  MutexLock lock(mu_);
  ring_.clear();
  ring_.reserve(capacity == 0 ? 1 : capacity);
  ring_capacity_ = capacity == 0 ? 1 : capacity;
  total_recorded_ = 0;
  epoch_ns_.store(SteadyNowNanos(), std::memory_order_relaxed);
  // Release ordering on gen_ then enabled_: a guard that acquires either
  // also sees this Enable()'s epoch, so lock-free NowMicros() reads are
  // race-free and consistent with the generation it stamps.
  gen_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

uint64_t Tracer::NowMicros() const {
  int64_t now_ns = SteadyNowNanos();
  int64_t epoch_ns = epoch_ns_.load(std::memory_order_acquire);
  // A concurrent Enable() can move the epoch past an already-taken clock
  // reading; clamp instead of underflowing (the span then dies on its
  // generation check anyway).
  return now_ns <= epoch_ns
             ? 0
             : static_cast<uint64_t>(now_ns - epoch_ns) / 1000;
}

uint32_t Tracer::ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::Record(std::string name, std::string args, uint64_t ts_us,
                    uint64_t dur_us, uint16_t depth) {
  Record(std::move(name), std::move(args), ts_us, dur_us, depth,
         generation());
}

void Tracer::Record(std::string name, std::string args, uint64_t ts_us,
                    uint64_t dur_us, uint16_t depth, uint64_t generation) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = ThisThreadId();
  ev.depth = depth;
  MutexLock lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  // Stale generation: the span opened under a previous Enable(), so its
  // start timestamp is measured against a dead epoch — drop it rather
  // than pollute the new capture with a garbage duration.
  if (generation != gen_.load(std::memory_order_relaxed)) return;
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    // Wraparound: overwrite the oldest slot. total_recorded_ keeps the
    // logical position so Snapshot can unroll the ring in order.
    ring_[total_recorded_ % ring_capacity_] = std::move(ev);
  }
  ++total_recorded_;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mu_);
    if (total_recorded_ <= ring_.size()) {
      out = ring_;
    } else {
      // Oldest surviving event sits right after the most recent write.
      size_t start = total_recorded_ % ring_capacity_;
      out.reserve(ring_.size());
      for (size_t i = 0; i < ring_.size(); ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
      }
    }
  }
  // Ties break by duration descending, then depth ascending, so an
  // enclosing span precedes the spans it contains — the order trace
  // viewers expect for same-tid "X" events sharing a start timestamp.
  // The depth tie-break matters when both spans round to 0us: guards
  // record on destruction, so the ring holds the inner span first.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                     return a.depth < b.depth;
                   });
  return out;
}

uint64_t Tracer::dropped() const {
  MutexLock lock(mu_);
  return total_recorded_ <= ring_capacity_
             ? 0
             : total_recorded_ - ring_capacity_;
}

size_t Tracer::capacity() const {
  MutexLock lock(mu_);
  return ring_capacity_;
}

std::string Tracer::ExportChromeTrace() const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    out += "  {\"name\": \"" + JsonEscape(ev.name) +
           "\", \"cat\": \"provlin\", \"ph\": \"X\", \"ts\": " +
           std::to_string(ev.ts_us) + ", \"dur\": " +
           std::to_string(ev.dur_us) + ", \"pid\": 1, \"tid\": " +
           std::to_string(ev.tid);
    out += ", \"args\": {\"depth\": " + std::to_string(ev.depth);
    if (!ev.args.empty()) {
      out += ", \"note\": \"" + JsonEscape(ev.args) + "\"";
    }
    out += "}}";
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

void SpanGuard::Begin(const char* name) {
  active_ = true;
  name_ = name;
  depth_ = t_depth++;
  Tracer& tracer = Tracer::Global();
  gen_ = tracer.generation();
  start_us_ = tracer.NowMicros();
}

void SpanGuard::End() {
  Tracer& tracer = Tracer::Global();
  uint64_t end_us = tracer.NowMicros();
  if (t_depth > 0) --t_depth;
  // end < start only when an Enable() flip moved the epoch mid-span;
  // clamp so even a racing stale event carries a sane duration.
  uint64_t dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  tracer.Record(name_, std::move(args_), start_us_, dur_us, depth_, gen_);
}

void PublishTracingStats() {
  Tracer& tracer = Tracer::Global();
  static metrics::Gauge* enabled = metrics::GetGauge("tracing/enabled");
  static metrics::Gauge* events = metrics::GetGauge("tracing/ring_events");
  static metrics::Gauge* capacity = metrics::GetGauge("tracing/ring_capacity");
  static metrics::Gauge* dropped = metrics::GetGauge("tracing/ring_dropped");
  enabled->Set(Tracer::enabled() ? 1 : 0);
  events->Set(static_cast<int64_t>(tracer.Snapshot().size()));
  capacity->Set(static_cast<int64_t>(tracer.capacity()));
  dropped->Set(static_cast<int64_t>(tracer.dropped()));
}

}  // namespace provlin::common::tracing

// Span recorder for the benchmark's traced replay. Each call the
// benchmark makes into a layer is bracketed by a span: name, start,
// end, parent span, and request id. Spans stay in memory and are
// written once at the end; a span's self time is its duration minus
// the time its direct children cover. Single-threaded by design: the
// replay issues its calls from one thread.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  /// Closes its span when it goes out of scope.
  class Guard {
   public:
    Guard(SpanLog* log, int index) : log_(log), index_(index) {}
    ~Guard() { log_->Close(index_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  Guard Open(std::string name, uint64_t request = 0) {
    Span s;
    s.name = std::move(name);
    s.start_ns = Now();
    s.parent = current_;
    s.request = request;
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return Guard(this, current_);
  }

  struct Totals {
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  /// Per span name: count, total time, and self time.
  std::map<std::string, Totals> SelfTimes() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Writes every span as Chrome trace-event JSON ("X" events).
  void WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Close(int index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = Now();
    current_ = s.parent;
  }

  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

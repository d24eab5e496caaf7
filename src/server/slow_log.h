#ifndef PROVLIN_SERVER_SLOW_LOG_H_
#define PROVLIN_SERVER_SLOW_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sync.h"

namespace provlin::server {

/// Structured slow-request sink: one JSON object per line, appended to
/// a bounded rotating file. When an append would push the live file
/// past `max_bytes`, the file is rotated to `<path>.1` (replacing any
/// previous rotation) and a fresh file is started — so the log never
/// holds more than ~2 × max_bytes on disk no matter how long the
/// server runs or how low the slow threshold is set (DESIGN.md §14).
///
/// Internally synchronized: every connection thread appends; Append
/// serializes writers and flushes per record so a crashed server loses
/// at most the record being written.
class SlowRequestLog {
 public:
  struct Options {
    std::string path;
    /// Rotation threshold for the live file (default 4 MiB).
    uint64_t max_bytes = 4u << 20;
  };

  /// Opens (creates or appends to) the log file.
  static Result<std::unique_ptr<SlowRequestLog>> Open(Options options);

  ~SlowRequestLog();
  SlowRequestLog(const SlowRequestLog&) = delete;
  SlowRequestLog& operator=(const SlowRequestLog&) = delete;

  /// Appends one record (a complete JSON object, no trailing newline —
  /// the log adds it) and flushes. Rotates first when the record would
  /// overflow max_bytes.
  Status Append(std::string_view json_record) EXCLUDES(mu_);

  const std::string& path() const { return options_.path; }
  /// Records appended over this log's lifetime (not just the live file).
  uint64_t records() const EXCLUDES(mu_);

 private:
  explicit SlowRequestLog(Options options) : options_(std::move(options)) {}
  Status RotateLocked() REQUIRES(mu_);

  const Options options_;
  mutable common::Mutex mu_{common::LockRank::kServerSlowLog};
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t records_ GUARDED_BY(mu_) = 0;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_SLOW_LOG_H_

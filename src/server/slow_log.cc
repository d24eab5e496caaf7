#include "server/slow_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace provlin::server {

Result<std::unique_ptr<SlowRequestLog>> SlowRequestLog::Open(Options options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("slow-request log needs a path");
  }
  if (options.max_bytes == 0) {
    return Status::InvalidArgument("slow-request log max_bytes must be > 0");
  }
  std::unique_ptr<SlowRequestLog> log(new SlowRequestLog(std::move(options)));
  common::MutexLock lock(log->mu_);
  log->file_ = std::fopen(log->options_.path.c_str(), "ab");
  if (log->file_ == nullptr) {
    return Status::IoError("cannot open slow-request log '" +
                           log->options_.path + "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::stat(log->options_.path.c_str(), &st) == 0) {
    log->bytes_ = static_cast<uint64_t>(st.st_size);
  }
  return log;
}

SlowRequestLog::~SlowRequestLog() {
  common::MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

Status SlowRequestLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = options_.path + ".1";
  // rename(2) replaces an existing rotation atomically; a failure
  // (cross-device, permissions) falls through to truncating in place —
  // the bound matters more than the history.
  if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
    std::remove(options_.path.c_str());
  }
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError("cannot reopen slow-request log '" + options_.path +
                           "': " + std::strerror(errno));
  }
  bytes_ = 0;
  return Status::OK();
}

Status SlowRequestLog::Append(std::string_view json_record) {
  common::MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("slow-request log is closed");
  }
  const uint64_t record_bytes = json_record.size() + 1;  // + newline
  if (bytes_ > 0 && bytes_ + record_bytes > options_.max_bytes) {
    PROVLIN_RETURN_IF_ERROR(RotateLocked());
  }
  if (std::fwrite(json_record.data(), 1, json_record.size(), file_) !=
          json_record.size() ||
      std::fputc('\n', file_) == EOF) {
    return Status::IoError("slow-request log write failed: " +
                           std::string(std::strerror(errno)));
  }
  std::fflush(file_);
  bytes_ += record_bytes;
  ++records_;
  return Status::OK();
}

uint64_t SlowRequestLog::records() const {
  common::MutexLock lock(mu_);
  return records_;
}

}  // namespace provlin::server

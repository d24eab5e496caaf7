#ifndef PROVLIN_SERVER_FRAME_H_
#define PROVLIN_SERVER_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "lineage/wire.h"

namespace provlin::server {

/// Frame transport of the lineage wire protocol (DESIGN.md §12): every
/// message travels as one length-prefixed frame on a TCP stream,
///
///   [payload length u32, little-endian][payload bytes]
///
/// where the payload is a wire.h envelope. The length prefix is
/// validated against a configured ceiling *before* the payload is
/// allocated, so a hostile or corrupted peer can cost at most the
/// reader's fixed read-ahead buffer — never an unbounded one. Frames
/// are self-delimiting, which is what lets one connection pipeline many
/// requests and read answers out of band.

/// Owning file-descriptor handle for sockets (move-only RAII).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { Close(); }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// shutdown(2) both directions — unblocks a reader in another thread
  /// without racing the fd close.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// Listening TCP socket on 127.0.0.1:`port` (port 0 = kernel-assigned;
/// recover the bound port with LocalPort). SO_REUSEADDR is set so CI
/// restarts do not trip over TIME_WAIT.
Result<Socket> TcpListen(uint16_t port, int backlog = 64);

/// Port a bound socket actually listens on.
Result<uint16_t> LocalPort(const Socket& socket);

/// Blocking connect to host:port (numeric or resolvable host).
Result<Socket> TcpConnect(const std::string& host, uint16_t port);

/// Accepts one connection; blocks. Callers multiplex stop-signals by
/// polling the listener before calling (see LineageServer's accept
/// loop) or by closing the listener, which fails the accept.
Result<Socket> Accept(const Socket& listener);

/// Writes one frame (length prefix + payload) with one gathering
/// sendmsg, looping over partial writes. Rejects payloads above
/// `max_frame_bytes` without writing.
Status WriteFrame(const Socket& socket, std::string_view payload,
                  uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes);

/// Reads frames off one connection through a read-ahead buffer, so a
/// frame that arrived whole costs one recv and frames that arrived
/// together cost one recv between them. Bytes past the frame just read
/// stay buffered for the next Read, so every read of a connection must
/// go through its one FrameReader. The buffer has a fixed size; a
/// payload larger than what it holds is received straight into the
/// caller's string, which is sized only after the length prefix has
/// passed the ceiling check.
class FrameReader {
 public:
  explicit FrameReader(
      uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Reads one frame from `socket` into `payload`. Returns false on
  /// clean EOF at a frame boundary (peer closed), true when a frame was
  /// read. A length prefix above the ceiling is OutOfRange — the
  /// connection cannot be resynchronized and must be closed. EOF inside
  /// a frame is Corruption.
  Result<bool> Read(const Socket& socket, std::string* payload);

 private:
  static constexpr size_t kBufferBytes = 16 * 1024;

  size_t buffered() const { return end_ - begin_; }
  /// One recv into the buffer's free tail; 0 at EOF.
  Result<size_t> Fill(const Socket& socket);

  uint32_t max_frame_bytes_;
  std::unique_ptr<char[]> buf_;  // kBufferBytes, allocated on first Read
  size_t begin_ = 0;             // unread bytes are buf_[begin_, end_)
  size_t end_ = 0;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_FRAME_H_

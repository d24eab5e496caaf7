#include "server/frame.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/metrics.h"

namespace provlin::server {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Full gather write with EINTR/partial-write handling: one sendmsg
/// per attempt, the iovecs advanced past whatever it wrote.
Status SendAll(int fd, iovec* iov, size_t iovcnt) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = iovcnt;
  while (msg.msg_iovlen > 0) {
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("sendmsg"));
    }
    auto left = static_cast<size_t>(w);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return Status::OK();
}

/// Full read; returns the byte count actually read (short only at EOF).
Result<size_t> ReadUpTo(int fd, char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t r = ::recv(fd, data + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("recv"));
    }
    if (r == 0) break;  // EOF
    off += static_cast<size_t>(r);
  }
  return off;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> TcpListen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));
  Socket sock(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IoError(Errno("bind"));
  }
  if (::listen(fd, backlog) != 0) return Status::IoError(Errno("listen"));
  return sock;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::IoError(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> TcpConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::IoError("getaddrinfo(" + host + "): " +
                           ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for '" + host + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(Errno("socket"));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    last = Status::IoError(Errno("connect"));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Result<Socket> Accept(const Socket& listener) {
  while (true) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Status::IoError(Errno("accept"));
  }
}

Status WriteFrame(const Socket& socket, std::string_view payload,
                  uint32_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte frame ceiling");
  }
  char prefix[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(prefix, &len, 4);
  iovec iov[2] = {{prefix, 4},
                  {const_cast<char*>(payload.data()), payload.size()}};
  PROVLIN_RETURN_IF_ERROR(SendAll(socket.fd(), iov, 2));
  static auto* frames = common::metrics::GetCounter("net/frames_out");
  static auto* bytes = common::metrics::GetCounter("net/bytes_out");
  frames->Increment();
  bytes->Add(4 + payload.size());
  return Status::OK();
}

Result<size_t> FrameReader::Fill(const Socket& socket) {
  if (buf_ == nullptr) buf_ = std::make_unique<char[]>(kBufferBytes);
  // Read only calls this with less than a length prefix buffered: move
  // it to the front so the recv can fill the rest of the buffer.
  std::memmove(buf_.get(), buf_.get() + begin_, buffered());
  end_ -= begin_;
  begin_ = 0;
  while (true) {
    ssize_t r = ::recv(socket.fd(), buf_.get() + end_, kBufferBytes - end_, 0);
    if (r >= 0) {
      end_ += static_cast<size_t>(r);
      return static_cast<size_t>(r);
    }
    if (errno != EINTR) return Status::IoError(Errno("recv"));
  }
}

Result<bool> FrameReader::Read(const Socket& socket, std::string* payload) {
  while (buffered() < 4) {
    PROVLIN_ASSIGN_OR_RETURN(size_t got, Fill(socket));
    if (got > 0) continue;
    if (buffered() == 0) return false;  // clean EOF between frames
    return Status::Corruption("EOF inside a frame length prefix");
  }
  uint32_t len = 0;
  std::memcpy(&len, buf_.get() + begin_, 4);
  if (len > max_frame_bytes_) {
    // Nothing past this point can be trusted as a frame boundary; the
    // caller must drop the connection.
    return Status::OutOfRange("frame length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(max_frame_bytes_) +
                              "-byte frame ceiling");
  }
  begin_ += 4;
  payload->resize(len);
  const size_t have = std::min<size_t>(len, buffered());
  std::memcpy(payload->data(), buf_.get() + begin_, have);
  begin_ += have;
  if (have < len) {
    // The buffer is drained; the rest of the payload goes straight into
    // the caller's string, and nothing past the frame is read.
    PROVLIN_ASSIGN_OR_RETURN(
        size_t got, ReadUpTo(socket.fd(), payload->data() + have, len - have));
    if (got < len - have) {
      return Status::Corruption("EOF inside a " + std::to_string(len) +
                                "-byte frame payload");
    }
  }
  static auto* frames = common::metrics::GetCounter("net/frames_in");
  static auto* bytes = common::metrics::GetCounter("net/bytes_in");
  frames->Increment();
  bytes->Add(4 + static_cast<uint64_t>(len));
  return true;
}

}  // namespace provlin::server

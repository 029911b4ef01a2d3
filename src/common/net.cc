#include "src/common/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace alert::net {
namespace {

using Clock = std::chrono::steady_clock;

serde::Status ErrnoError(const std::string& context) {
  return serde::Error(context + ": " + strerror(errno));
}

// Remaining budget for a deadline computed at call entry; -1 for "block".  This is
// the single place the timeout arithmetic lives — every poll in this file asks the
// deadline, never the original timeout, so EINTR and partial progress can only
// shrink the wait, never restart it.
int RemainingMs(int timeout_ms, Clock::time_point deadline) {
  if (timeout_ms < 0) {
    return -1;
  }
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return remaining.count() > 0 ? static_cast<int>(remaining.count()) : 0;
}

// Turns Nagle off on a freshly connected socket, or closes it and reports why.  The
// line protocols here are request/reply: a peer blocks on every line, so holding a
// small write back until the previous segment is ACKed stalls each exchange for the
// peer's delayed-ACK timer (~40 ms on Linux).
serde::Status SetNoDelayOrClose(int fd, const std::string& context) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    const serde::Status s = ErrnoError(context + ": setsockopt(TCP_NODELAY)");
    ::close(fd);
    return s;
  }
  return serde::Ok();
}

}  // namespace

void EnsureSigpipeIgnored() {
  static const bool installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

LineChannel::LineChannel(int read_fd, int write_fd, bool owns_fds)
    : read_fd_(read_fd), write_fd_(write_fd), owns_fds_(owns_fds) {
  EnsureSigpipeIgnored();
}

LineChannel::~LineChannel() {
  if (!owns_fds_) {
    return;
  }
  if (write_fd_ >= 0 && write_fd_ != read_fd_) {
    ::close(write_fd_);
  }
  if (read_fd_ >= 0) {
    ::close(read_fd_);
  }
}

ReadStatus LineChannel::ReadLine(int timeout_ms, std::string* out) {
  // The deadline bounds the whole call, not each poll: data trickling in without a
  // newline — or a signal interrupting the poll — must not restart the clock.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  for (;;) {
    // Serve from the buffer first so lines queued behind one read() are not lost
    // behind a poll() that will never fire again after EOF.
    const size_t nl = buffer_.find('\n', scan_pos_);
    if (nl != std::string::npos) {
      out->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      scan_pos_ = 0;
      return ReadStatus::kLine;
    }
    scan_pos_ = buffer_.size();
    if (read_eof_ || read_fd_ < 0) {
      if (!buffer_.empty()) {
        // Final unterminated line (a worker killed mid-write): deliver what arrived.
        out->assign(buffer_);
        buffer_.clear();
        scan_pos_ = 0;
        return ReadStatus::kLine;
      }
      return ReadStatus::kClosed;
    }

    const int wait_ms = RemainingMs(timeout_ms, deadline);
    if (timeout_ms > 0 && wait_ms <= 0) {
      return ReadStatus::kTimeout;
    }
    struct pollfd pfd = {read_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms == 0 ? 0 : wait_ms);
    if (rc == 0) {
      if (timeout_ms < 0) {
        continue;  // spurious zero-fd-ready wakeup on an infinite wait
      }
      return ReadStatus::kTimeout;
    }
    if (rc < 0) {
      if (errno == EINTR) {
        continue;  // the loop head recomputes the remaining budget
      }
      read_eof_ = true;
      continue;
    }
    char chunk[4096];
    const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      read_eof_ = true;
      continue;
    }
    if (n == 0) {
      read_eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

serde::Status LineChannel::WriteLine(std::string_view line) {
  if (write_fd_ < 0) {
    return serde::Error("WriteLine: stream already closed");
  }
  std::string buf(line);
  buf.push_back('\n');
  size_t written = 0;
  while (written < buf.size()) {
    const ssize_t n = ::write(write_fd_, buf.data() + written, buf.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("WriteLine");
    }
    written += static_cast<size_t>(n);
  }
  return serde::Ok();
}

void LineChannel::CloseWrite() {
  if (write_fd_ < 0) {
    return;
  }
  if (write_fd_ == read_fd_) {
    ::shutdown(write_fd_, SHUT_WR);  // socket: half-close, reads stay live
  } else if (owns_fds_) {
    ::close(write_fd_);
  }
  write_fd_ = -1;
}

serde::Status ListenLocalhost(int* listen_fd, int* out_port) {
  EnsureSigpipeIgnored();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the OS picks, we report
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const serde::Status s = ErrnoError("bind 127.0.0.1");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 16) != 0) {
    const serde::Status s = ErrnoError("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    const serde::Status s = ErrnoError("getsockname");
    ::close(fd);
    return s;
  }
  *listen_fd = fd;
  *out_port = static_cast<int>(ntohs(addr.sin_port));
  return serde::Ok();
}

serde::Status AcceptWithTimeout(int listen_fd, int timeout_ms, int* conn_fd) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  for (;;) {
    const int wait_ms = RemainingMs(timeout_ms, deadline);
    if (timeout_ms > 0 && wait_ms <= 0) {
      return serde::Error("accept: timed out waiting for the worker to connect");
    }
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms == 0 ? 0 : wait_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoError("poll(listen)");
    }
    if (rc == 0) {
      if (timeout_ms < 0) {
        continue;
      }
      return serde::Error("accept: timed out waiting for the worker to connect");
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return ErrnoError("accept");
    }
    const serde::Status s = SetNoDelayOrClose(fd, "accept");
    if (!s) {
      return s;
    }
    *conn_fd = fd;
    return serde::Ok();
  }
}

serde::Status ConnectTcp(const std::string& host, int port, int* conn_fd) {
  EnsureSigpipeIgnored();
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return serde::Error("connect: bad IPv4 address '" + host + "'");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoError("socket");
  }
  while (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINTR) {
      continue;
    }
    const serde::Status s = ErrnoError("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  const serde::Status s = SetNoDelayOrClose(fd, "connect");
  if (!s) {
    return s;
  }
  *conn_fd = fd;
  return serde::Ok();
}

serde::Status ParseHostPort(std::string_view text, std::string* host, int* port) {
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 >= text.size()) {
    return serde::Error("expected HOST:PORT, got '" + std::string(text) + "'");
  }
  int value = 0;
  const serde::Status s = serde::ParseInt(text.substr(colon + 1), &value);
  if (!s) {
    return serde::Wrap("port", s);
  }
  if (value <= 0 || value > 65535) {
    return serde::Error("port " + std::to_string(value) + " out of range");
  }
  *host = std::string(text.substr(0, colon));
  *port = value;
  return serde::Ok();
}

}  // namespace alert::net

// Line-oriented byte streams over raw POSIX fds, plus localhost TCP plumbing.
//
// Every transport in the dispatch stack — pipes to a subprocess, a worker's own
// stdin/stdout, a TCP connection — is the same thing: a full-duplex stream of
// newline-delimited serde records.  `LineChannel` is the one implementation of
// that primitive: buffered line reads with a deadline-correct timeout, whole-line
// writes with EINTR/short-write retries, and EOF signaling that still drains
// buffered lines first.  subprocess::Child and the socket transport both delegate
// to it, so the tricky poll-loop code exists exactly once.
//
// == Timeout contract (the part worth a regression test) ==
//
// `ReadLine(timeout_ms)` bounds the *whole call*, not each poll: the deadline is
// computed once up front and the remaining budget is recomputed on every loop
// iteration — including after an EINTR-interrupted poll or a read that delivered
// bytes without a newline.  A caller asking for 500 ms therefore waits ~500 ms
// even when a signal storm interrupts the poll every few milliseconds (see
// tests/common/net_test.cc's alarm harness).  timeout_ms < 0 blocks, 0 polls.
//
// The TCP helpers bind 127.0.0.1 only: the wire protocol is unauthenticated, so
// the socket transport is strictly a localhost/e2e affair (reach real remote
// machines through the ssh command template instead).
//
// == Latency contract ==
//
// Every TCP LineChannel carries request/reply lines a peer is blocked on (an alertd
// tenant waiting for its decision, a worker waiting for its lease), so writes go out
// immediately: AcceptWithTimeout and ConnectTcp set TCP_NODELAY on every socket they
// hand back, and fail (closing the fd) if they cannot.  With Nagle on, a reply
// written as a second small segment waits for the peer's delayed ACK, ~40 ms a round.
#ifndef SRC_COMMON_NET_H_
#define SRC_COMMON_NET_H_

#include <string>
#include <string_view>

#include "src/common/serde.h"

namespace alert::net {

// Outcome of one timed line read.
enum class ReadStatus : int {
  kLine = 0,     // *out holds the next line
  kTimeout = 1,  // nothing arrived within timeout_ms; stream still open
  kClosed = 2,   // stream closed and every buffered line has been delivered
};

// Installs a process-wide SIG_IGN for SIGPIPE (once): writing to a dead peer must
// surface as an EPIPE Status, not kill the process.
void EnsureSigpipeIgnored();

// One full-duplex line stream.  `read_fd` and `write_fd` may be the same fd (a
// connected socket), distinct (a pipe pair), or -1 (direction unused).  When
// `owns_fds` is true the destructor closes them.  Not thread-safe; callers that
// poll from multiple threads (the worker's revoke drain) serialize externally.
class LineChannel {
 public:
  LineChannel(int read_fd, int write_fd, bool owns_fds);
  ~LineChannel();
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  // Next complete line, without its terminator.  After EOF, buffered lines are
  // still drained before kClosed; a final unterminated line is delivered as a
  // line.  See the timeout contract above.
  ReadStatus ReadLine(int timeout_ms, std::string* out);

  // Writes `line` plus '\n' atomically from the caller's view (short writes and
  // EINTR retried).  Errors once the peer is gone (EPIPE) or the write side is
  // closed.
  serde::Status WriteLine(std::string_view line);

  // Signals EOF to the peer: shutdown(SHUT_WR) when the fds are one socket,
  // close otherwise.  WriteLine fails afterwards.  Idempotent.
  void CloseWrite();

  int read_fd() const { return read_fd_; }

 private:
  int read_fd_;
  int write_fd_;
  bool owns_fds_;
  bool read_eof_ = false;
  std::string buffer_;   // bytes read but not yet returned as lines
  size_t scan_pos_ = 0;  // buffer_ prefix already known to contain no '\n'
};

// Binds and listens on 127.0.0.1 with an ephemeral port; fills the fd and the
// chosen port.  The listener is blocking; pair with AcceptWithTimeout.
serde::Status ListenLocalhost(int* listen_fd, int* out_port);

// Accepts one connection, waiting up to timeout_ms (deadline-correct, as above).
// The returned socket has TCP_NODELAY set (see the latency contract).
serde::Status AcceptWithTimeout(int listen_fd, int timeout_ms, int* conn_fd);

// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").  The returned socket
// has TCP_NODELAY set (see the latency contract).
serde::Status ConnectTcp(const std::string& host, int port, int* conn_fd);

// Splits "HOST:PORT"; errors on a missing colon or a non-numeric/out-of-range port.
serde::Status ParseHostPort(std::string_view text, std::string* host, int* port);

}  // namespace alert::net

#endif  // SRC_COMMON_NET_H_

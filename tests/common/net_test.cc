// LineChannel and localhost TCP plumbing, including the regression test for the
// dispatcher-hang class of bugs: a timed ReadLine must bound the WHOLE call even
// when signals interrupt the underlying poll every few milliseconds.  A deadline
// that is re-armed per poll iteration never expires under a signal storm — that is
// exactly how a heartbeat-signal-heavy worker once turned a 500 ms read into a
// stuck dispatcher — so the alarm harness here fails loudly if the contract
// regresses.
#include "src/common/net.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>

namespace alert::net {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

int NoDelayOf(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value;
}

TEST(ParseHostPortTest, SplitsAndValidates) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:8080", &host, &port).ok);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);

  EXPECT_FALSE(ParseHostPort("127.0.0.1", &host, &port).ok);    // no colon
  EXPECT_FALSE(ParseHostPort(":8080", &host, &port).ok);        // empty host
  EXPECT_FALSE(ParseHostPort("localhost:", &host, &port).ok);   // empty port
  EXPECT_FALSE(ParseHostPort("localhost:x", &host, &port).ok);  // non-numeric
  EXPECT_FALSE(ParseHostPort("localhost:70000", &host, &port).ok);  // out of range
  EXPECT_FALSE(ParseHostPort("localhost:0", &host, &port).ok);
}

TEST(LineChannelTest, SplitsLinesAndDrainsTheBufferPastEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  {
    // Two complete lines, then a final unterminated fragment, then EOF.
    LineChannel writer(-1, fds[1], /*owns_fds=*/true);
    ASSERT_TRUE(writer.WriteLine("alpha").ok);
    ASSERT_TRUE(writer.WriteLine("beta").ok);
    ASSERT_EQ(write(fds[1], "tail", 4), 4);
  }  // writer closes fds[1]

  LineChannel reader(fds[0], -1, /*owns_fds=*/true);
  std::string line;
  EXPECT_EQ(reader.ReadLine(-1, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "alpha");
  EXPECT_EQ(reader.ReadLine(-1, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "beta");
  // The torn final line is still delivered...
  EXPECT_EQ(reader.ReadLine(-1, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "tail");
  // ...and only then does the channel report closed, idempotently.
  EXPECT_EQ(reader.ReadLine(-1, &line), ReadStatus::kClosed);
  EXPECT_EQ(reader.ReadLine(0, &line), ReadStatus::kClosed);
}

TEST(LineChannelTest, ZeroTimeoutPollsWithoutBlocking) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  LineChannel reader(fds[0], -1, /*owns_fds=*/true);
  LineChannel writer(-1, fds[1], /*owns_fds=*/true);

  std::string line;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.ReadLine(0, &line), ReadStatus::kTimeout);
  EXPECT_LT(MsSince(start), 1000.0);  // a poll, not a block

  ASSERT_TRUE(writer.WriteLine("now").ok);
  EXPECT_EQ(reader.ReadLine(0, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "now");
}

TEST(LineChannelTest, WriteToAGonePeerIsAStatusNotACrash) {
  EnsureSigpipeIgnored();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);  // the reader is gone
  LineChannel writer(-1, fds[1], /*owns_fds=*/true);
  const serde::Status s = writer.WriteLine("into the void");
  EXPECT_FALSE(s.ok);

  LineChannel closed(-1, -1, /*owns_fds=*/false);
  EXPECT_FALSE(closed.WriteLine("nowhere").ok);
}

// --- the EINTR/deadline regression harness -----------------------------------------

volatile sig_atomic_t g_alarms = 0;
void CountAlarm(int) { ++g_alarms; }

// Hammers the calling thread with SIGALRM every interval_ms (no SA_RESTART, so
// every poll/read returns EINTR) for the lifetime of the object.
class AlarmStorm {
 public:
  explicit AlarmStorm(int interval_ms) {
    g_alarms = 0;
    struct sigaction action = {};
    action.sa_handler = &CountAlarm;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigaction(SIGALRM, &action, &previous_);
    itimerval timer = {};
    timer.it_interval.tv_usec = interval_ms * 1000;
    timer.it_value.tv_usec = interval_ms * 1000;
    setitimer(ITIMER_REAL, &timer, nullptr);
  }
  ~AlarmStorm() {
    itimerval off = {};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &previous_, nullptr);
  }

 private:
  struct sigaction previous_;
};

TEST(LineChannelTest, TimedReadHoldsItsDeadlineThroughASignalStorm) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  LineChannel reader(fds[0], -1, /*owns_fds=*/true);
  LineChannel writer(-1, fds[1], /*owns_fds=*/true);
  (void)writer;  // held open: the read must time out, not see EOF

  constexpr int kTimeoutMs = 400;
  const AlarmStorm storm(/*interval_ms=*/20);
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  const ReadStatus status = reader.ReadLine(kTimeoutMs, &line);
  const double elapsed = MsSince(start);

  EXPECT_EQ(status, ReadStatus::kTimeout);
  // The deadline bounds the whole call.  A per-iteration timeout that re-arms on
  // every EINTR would never expire under a 20 ms alarm interval — the old bug made
  // this read hang until the writer died.  Generous upper bound for noisy CI.
  EXPECT_GE(elapsed, kTimeoutMs - 50.0);
  EXPECT_LT(elapsed, 4.0 * kTimeoutMs);
  // Prove the storm actually interrupted the poll repeatedly.
  EXPECT_GE(g_alarms, 5);
}

TEST(LineChannelTest, SignalStormDoesNotCorruptDeliveredLines) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  LineChannel reader(fds[0], -1, /*owns_fds=*/true);

  const AlarmStorm storm(/*interval_ms=*/5);
  std::thread feeder([write_fd = fds[1]] {
    LineChannel writer(-1, write_fd, /*owns_fds=*/true);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(writer.WriteLine("line-" + std::to_string(i)).ok);
      if (i % 25 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
  std::string line;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(reader.ReadLine(5000, &line), ReadStatus::kLine) << "line " << i;
    EXPECT_EQ(line, "line-" + std::to_string(i));
  }
  feeder.join();
  EXPECT_EQ(reader.ReadLine(-1, &line), ReadStatus::kClosed);
}

// --- localhost TCP -----------------------------------------------------------------

TEST(TcpTest, ListenConnectAcceptRoundTripsBothDirections) {
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(ListenLocalhost(&listen_fd, &port).ok);
  ASSERT_GT(port, 0);

  int client_fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", port, &client_fd).ok);
  int server_fd = -1;
  ASSERT_TRUE(AcceptWithTimeout(listen_fd, 5000, &server_fd).ok);
  close(listen_fd);

  LineChannel client(client_fd, client_fd, /*owns_fds=*/true);
  LineChannel server(server_fd, server_fd, /*owns_fds=*/true);
  std::string line;
  ASSERT_TRUE(client.WriteLine("ping").ok);
  ASSERT_EQ(server.ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "ping");
  ASSERT_TRUE(server.WriteLine("pong").ok);
  ASSERT_EQ(client.ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "pong");

  // Half-close: the server sees EOF but its write side still works until closed.
  client.CloseWrite();
  EXPECT_EQ(server.ReadLine(5000, &line), ReadStatus::kClosed);
}

TEST(TcpTest, BothEndsOfAConnectionHaveNagleOff) {
  // Latency contract: a reply written as a second small segment must not wait for
  // the peer's delayed ACK, so both the accepted and the connecting end carry
  // TCP_NODELAY.  Checked through getsockopt: no timing involved.
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(ListenLocalhost(&listen_fd, &port).ok);
  int client_fd = -1;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", port, &client_fd).ok);
  int server_fd = -1;
  ASSERT_TRUE(AcceptWithTimeout(listen_fd, 5000, &server_fd).ok);
  close(listen_fd);
  EXPECT_EQ(NoDelayOf(server_fd), 1) << "accepted socket still runs Nagle";
  EXPECT_EQ(NoDelayOf(client_fd), 1) << "connected socket still runs Nagle";
  close(server_fd);
  close(client_fd);
}

TEST(TcpTest, AcceptTimesOutWhenNobodyConnects) {
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(ListenLocalhost(&listen_fd, &port).ok);
  int conn_fd = -1;
  const auto start = std::chrono::steady_clock::now();
  const serde::Status s = AcceptWithTimeout(listen_fd, 100, &conn_fd);
  EXPECT_FALSE(s.ok);
  EXPECT_LT(MsSince(start), 5000.0);
  close(listen_fd);
}

TEST(TcpTest, ConnectToAClosedPortFails) {
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(ListenLocalhost(&listen_fd, &port).ok);
  close(listen_fd);  // nobody listening on `port` anymore
  int conn_fd = -1;
  EXPECT_FALSE(ConnectTcp("127.0.0.1", port, &conn_fd).ok);
}

}  // namespace
}  // namespace alert::net

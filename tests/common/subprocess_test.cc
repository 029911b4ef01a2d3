// Contract tests for the line-oriented child-process primitive the dispatcher's
// subprocess/command transports sit on: spawn, bidirectional line I/O, timeouts,
// EOF-with-drained-buffer semantics, and zombie-free teardown.
#include "src/common/subprocess.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <memory>
#include <string>

namespace alert::subprocess {
namespace {

TEST(SubprocessTest, EchoRoundTrip) {
  std::unique_ptr<Child> child;
  const serde::Status s = Child::SpawnShell("while read l; do echo \"got:$l\"; done", &child);
  ASSERT_TRUE(s.ok) << s.message;

  ASSERT_TRUE(child->WriteLines("hello\n").ok);
  ASSERT_TRUE(child->WriteLines("world\n").ok);
  std::string line;
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "got:hello");
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "got:world");

  child->CloseStdin();  // read loop sees EOF and exits
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed);
  const int status = child->Wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SubprocessTest, SpawnArgvRunsWithoutShellExpansion) {
  std::unique_ptr<Child> child;
  const serde::Status s = Child::SpawnArgv({"/bin/echo", "$HOME literal"}, &child);
  ASSERT_TRUE(s.ok) << s.message;
  std::string line;
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "$HOME literal");  // argv spawn must not expand shell syntax
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed);
}

TEST(SubprocessTest, ZeroTimeoutPollsWithoutBlocking) {
  std::unique_ptr<Child> child;
  ASSERT_TRUE(Child::SpawnShell("read l; echo done", &child).ok);
  std::string line;
  // Nothing written yet: a poll must come back immediately with kTimeout.
  EXPECT_EQ(child->ReadLine(0, &line), ReadStatus::kTimeout);
  ASSERT_TRUE(child->WriteLines("go\n").ok);
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "done");
}

TEST(SubprocessTest, BufferedLinesSurviveChildExit) {
  std::unique_ptr<Child> child;
  // The child writes two lines and exits immediately; both must still be readable
  // after the process is gone (the dispatcher merges a dead worker's last results).
  ASSERT_TRUE(Child::SpawnShell("echo one; echo two", &child).ok);
  std::string line;
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "one");
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "two");
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed);
}

TEST(SubprocessTest, FinalUnterminatedLineIsDelivered) {
  std::unique_ptr<Child> child;
  ASSERT_TRUE(Child::SpawnShell("printf 'partial'", &child).ok);
  std::string line;
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "partial");
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed);
}

TEST(SubprocessTest, MissingBinaryIsAnExitNotAHang) {
  std::unique_ptr<Child> child;
  // exec failure happens in the forked child, which exits 127; the parent sees a
  // closed stream, never a hang.
  ASSERT_TRUE(Child::SpawnArgv({"/nonexistent/alert-no-such-binary"}, &child).ok);
  std::string line;
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed);
  const int status = child->Wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 127);
}

TEST(SubprocessTest, KillTerminatesAndWriteAfterDeathIsAStatusError) {
  std::unique_ptr<Child> child;
  ASSERT_TRUE(Child::SpawnShell("sleep 600", &child).ok);
  child->Kill();
  const int status = child->Wait();
  EXPECT_TRUE(WIFSIGNALED(status));
  // The pipe may take one write to observe EPIPE; either write must fail, and the
  // process (us) must survive it — SIGPIPE is ignored.
  serde::Status s = child->WriteLines("after death\n");
  if (s.ok) {
    s = child->WriteLines("after death 2\n");
  }
  EXPECT_FALSE(s.ok);
}

TEST(SubprocessTest, KillTakesDownForkedGrandchildrenToo) {
  // `; :` keeps the shell alive after the subshell, so the shell forks rather than
  // execs, and the subshell becomes a `sleep` grandchild holding the stdout pipe.
  // Reading its line first proves the grandchild exists before Kill, so the test
  // cannot pass by killing the shell before it forks.  Killing only the shell
  // would leave that pipe open for 600 s; killing the group closes it at once.
  std::unique_ptr<Child> child;
  ASSERT_TRUE(Child::SpawnShell("(echo forked; exec sleep 600); :", &child).ok);
  std::string line;
  ASSERT_EQ(child->ReadLine(5000, &line), ReadStatus::kLine);
  EXPECT_EQ(line, "forked");
  child->Kill();
  child->Wait();
  EXPECT_EQ(child->ReadLine(5000, &line), ReadStatus::kClosed)
      << "a grandchild outlived Kill and still holds the pipe";
}

TEST(SubprocessTest, EmptyCommandsAreStatusErrors) {
  std::unique_ptr<Child> child;
  EXPECT_FALSE(Child::SpawnArgv({}, &child).ok);
  EXPECT_FALSE(Child::SpawnShell("", &child).ok);
}

}  // namespace
}  // namespace alert::subprocess

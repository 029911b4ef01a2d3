// Line-oriented child processes over stdin/stdout pipes (POSIX).
//
// The remote shard dispatcher talks to its workers through exactly one primitive: a
// bidirectional stream of text lines (the serde record grammar of src/common/serde.h).
// `Child` is that primitive for local processes — fork/exec with the child's stdin and
// stdout redirected to pipes — and doubles as the transport for anything reachable
// through a command line (`/bin/sh -c "ssh host ..."`).
//
// == API contract ==
//
// Spawning: `SpawnArgv` executes a program directly (no shell); `SpawnShell` runs a
// command line under `/bin/sh -c`, which is how worker command templates reach
// remote machines.  Both return a Status instead of aborting — a missing binary is an
// operator error, not a logic error.  Spawning installs a process-wide SIG_IGN for
// SIGPIPE (once) so that writing to a dead child surfaces as an EPIPE Status, not a
// process kill.
//
// I/O: `WriteLines` writes one or more '\n'-terminated lines whole (short writes
// retried); it fails once the child's stdin is closed.  `ReadLine` returns the next complete line
// without its terminator, waiting up to `timeout_ms` (-1 = block indefinitely,
// 0 = poll).  Readback is internally buffered; after the child exits, buffered lines
// are still drained before kClosed is reported, so no output is lost.  A final
// unterminated partial line is delivered as a line when the stream closes.  The
// timeout bounds the whole call even across EINTR-interrupted polls — the buffered
// line machinery is net::LineChannel (src/common/net.h), shared with the socket
// transport, where that deadline contract is documented and regression-tested.
//
// Lifecycle: each child leads its own process group, and killing it SIGKILLs the
// whole group — so a forked grandchild (the shell's `sleep`, an ssh client) dies
// with it instead of holding the pipes open.  The destructor closes the pipes, kills
// a still-running child, and reaps it — a Child can never leak a zombie.  `Kill` +
// `Wait` do the same explicitly when the caller wants the exit status.  Kill also
// closes the child's stdin, so a later write fails even while a dying grandchild
// still holds the pipe.  None of the methods are thread-safe; a Child belongs to one
// thread (the dispatcher event loop).
#ifndef SRC_COMMON_SUBPROCESS_H_
#define SRC_COMMON_SUBPROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/net.h"
#include "src/common/serde.h"

namespace alert::subprocess {

// Outcome of a ReadLine call (shared with every other line stream in the repo).
using ReadStatus = net::ReadStatus;

class Child {
 public:
  // Executes argv[0] with the given argument vector (no shell involved).
  static serde::Status SpawnArgv(const std::vector<std::string>& argv,
                                 std::unique_ptr<Child>* out);
  // Runs `command` under `/bin/sh -c` (shell syntax, e.g. an ssh invocation).
  static serde::Status SpawnShell(const std::string& command,
                                  std::unique_ptr<Child>* out);

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  // Writes `lines`, one or more lines each already ending in '\n', to the child's
  // stdin in one write.  Errors once the child has exited or closed its stdin
  // (EPIPE), never raises SIGPIPE.
  serde::Status WriteLines(std::string_view lines);

  // Closes the child's stdin (EOF for a line-loop worker); WriteLines fails afterwards.
  void CloseStdin();

  // Next complete line from the child's stdout.  timeout_ms < 0 blocks, 0 polls.
  ReadStatus ReadLine(int timeout_ms, std::string* out);

  // SIGKILLs the child's process group if the child is not yet reaped and closes
  // its stdin, so WriteLines fails from here on (idempotent; does not reap).  Output
  // the child already wrote stays readable.  Kill alone is the stdin close: no
  // CloseStdin call is needed before it.
  void Kill();

  // Reaps the child (blocking) and returns its raw waitpid status; -1 if already
  // reaped.  Call Kill first unless the child is known to be exiting.
  int Wait();

  pid_t pid() const { return pid_; }
  // The read end of the child's stdout: poll() it for readability to wait until
  // ReadLine can make progress (a line, or EOF once the child exits).
  int stdout_fd() const { return io_.read_fd(); }

 private:
  Child(pid_t pid, int stdin_fd, int stdout_fd);

  static serde::Status Spawn(const std::vector<std::string>& argv,
                             std::unique_ptr<Child>* out);

  pid_t pid_ = -1;
  bool reaped_ = false;
  net::LineChannel io_;  // read = child's stdout, write = child's stdin
};

}  // namespace alert::subprocess

#endif  // SRC_COMMON_SUBPROCESS_H_

#include "src/common/subprocess.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <cstring>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "src/common/check.h"

namespace alert::subprocess {
namespace {

serde::Status ErrnoError(const std::string& context) {
  return serde::Error(context + ": " + strerror(errno));
}

}  // namespace

Child::Child(pid_t pid, int stdin_fd, int stdout_fd)
    : pid_(pid), io_(/*read_fd=*/stdout_fd, /*write_fd=*/stdin_fd, /*owns_fds=*/true) {}

serde::Status Child::Spawn(const std::vector<std::string>& argv,
                           std::unique_ptr<Child>* out) {
  ALERT_CHECK(!argv.empty());
  net::EnsureSigpipeIgnored();

  // O_CLOEXEC so a later-spawned sibling cannot inherit this child's pipe ends —
  // otherwise an orphaned worker's EOF/EPIPE would be gated on every younger sibling
  // exiting first.  The dup2 in the child clears the flag on its own two ends.
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return ErrnoError("pipe");
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return ErrnoError("pipe");
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return ErrnoError("fork");
  }
  if (pid == 0) {
    // Child: lead a process group of its own, so Kill reaches everything the command
    // forks (a `/bin/sh -c` pipeline, an ssh client) and not just this pid.  The
    // parent makes the same call, so whichever runs first wins and a Kill issued
    // right after Spawn returns cannot race it.
    ::setpgid(0, 0);
    // Wire the pipes to stdin/stdout, leave stderr shared for diagnostics.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execvp(cargv[0], cargv.data());
    std::fprintf(stderr, "subprocess: exec '%s': %s\n", cargv[0], strerror(errno));
    ::_exit(127);
  }

  // Fails harmlessly (EACCES) once the child has exec'd: it then already did it.
  ::setpgid(pid, pid);
  ::close(to_child[0]);
  ::close(from_child[1]);
  out->reset(new Child(pid, to_child[1], from_child[0]));
  return serde::Ok();
}

serde::Status Child::SpawnArgv(const std::vector<std::string>& argv,
                               std::unique_ptr<Child>* out) {
  if (argv.empty()) {
    return serde::Error("SpawnArgv: empty argv");
  }
  return Spawn(argv, out);
}

serde::Status Child::SpawnShell(const std::string& command,
                                std::unique_ptr<Child>* out) {
  if (command.empty()) {
    return serde::Error("SpawnShell: empty command");
  }
  return Spawn({"/bin/sh", "-c", command}, out);
}

Child::~Child() {
  if (!reaped_) {
    Kill();
    Wait();
  }
}

serde::Status Child::WriteLine(std::string_view line) {
  return io_.WriteLine(line);
}

void Child::CloseStdin() {
  io_.CloseWrite();
}

ReadStatus Child::ReadLine(int timeout_ms, std::string* out) {
  return io_.ReadLine(timeout_ms, out);
}

void Child::Kill() {
  if (!reaped_ && pid_ > 0) {
    ::killpg(pid_, SIGKILL);  // the whole group: see Spawn
  }
}

int Child::Wait() {
  if (reaped_ || pid_ <= 0) {
    return -1;
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  return status;
}

}  // namespace alert::subprocess

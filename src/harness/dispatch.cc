#include "src/harness/dispatch.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/common/net.h"
#include "src/common/subprocess.h"
#include "src/harness/sweep_io.h"

namespace alert {
namespace {

using Clock = std::chrono::steady_clock;

int ElapsedMs(Clock::time_point since) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - since)
                              .count());
}

double ElapsedMsDouble(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

// ----------------------------------------------------------------------------------
// In-process transport: a worker thread per launch, in-memory line queues.

// One direction of an in-process channel.  `wait_fd()` is an eventfd that is
// readable exactly while a line is queued or the queue is closed: the queue raises
// it on the empty -> non-empty transition and on Close, and clears it when a Pop
// empties an open queue, all under the lock.  Lines pushed with a delay stay
// invisible to Pop until it elapses; the fd ignores the delay, so only the
// dispatcher-bound queue, which is never delayed, is polled.
class LineQueue {
 public:
  LineQueue() : event_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    ALERT_CHECK(event_fd_ >= 0);
  }
  ~LineQueue() { ::close(event_fd_); }
  LineQueue(const LineQueue&) = delete;
  LineQueue& operator=(const LineQueue&) = delete;

  // Queues each non-empty '\n'-separated line of `lines`, readable after `delay`.
  void Push(std::string_view lines, Clock::duration delay = {}) {
    const Clock::time_point ready = Clock::now() + delay;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return;  // receiver is gone; the lines would never be read
      }
      const bool was_empty = lines_.empty();
      size_t pos = 0;
      while (pos < lines.size()) {
        const size_t end = std::min(lines.find('\n', pos), lines.size());
        if (end > pos) {
          lines_.push_back({ready, std::string(lines.substr(pos, end - pos))});
        }
        pos = end + 1;
      }
      if (was_empty && !lines_.empty()) {
        Raise();
      }
    }
    cv_.notify_all();
  }

  ChannelRead Pop(int timeout_ms, std::string* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    const Clock::time_point deadline =
        timeout_ms < 0 ? Clock::time_point::max()
                       : Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (!lines_.empty() && lines_.front().ready <= now) {
        *out = std::move(lines_.front().line);
        lines_.pop_front();
        if (lines_.empty() && !closed_) {
          uint64_t count = 0;
          (void)!::read(event_fd_, &count, sizeof(count));
        }
        return ChannelRead::kLine;
      }
      if (lines_.empty() && closed_) {
        return ChannelRead::kClosed;
      }
      if (now >= deadline) {
        return ChannelRead::kTimeout;
      }
      if (lines_.empty() && timeout_ms < 0) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, lines_.empty() ? deadline
                                            : std::min(deadline, lines_.front().ready));
      }
    }
  }

  void Close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      Raise();
    }
    cv_.notify_all();
  }

  int wait_fd() const { return event_fd_; }

 private:
  struct Line {
    Clock::time_point ready;
    std::string line;
  };

  void Raise() {
    const uint64_t one = 1;
    (void)!::write(event_fd_, &one, sizeof(one));
  }

  const int event_fd_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Line> lines_;
  bool closed_ = false;
};

// The worker thread's view of its channel.
// `before_first_grant`, if set, runs once, just before the first lease-grant line
// is handed to the worker (the transport's first-lease barrier).
class QueueWorkerLink final : public WorkerLink {
 public:
  QueueWorkerLink(LineQueue& incoming, LineQueue& outgoing,
                  std::function<void()> before_first_grant)
      : incoming_(incoming),
        outgoing_(outgoing),
        before_first_grant_(std::move(before_first_grant)) {}

  bool ReadLine(std::string* line) override {
    if (incoming_.Pop(-1, line) != ChannelRead::kLine) {
      return false;
    }
    if (before_first_grant_ && line->starts_with("lease-grant")) {
      std::exchange(before_first_grant_, nullptr)();
    }
    return true;
  }
  bool TryReadLine(std::string* line) override {
    return incoming_.Pop(0, line) == ChannelRead::kLine;
  }
  serde::Status WriteLine(std::string_view line) override {
    outgoing_.Push(line);
    return serde::Ok();
  }

 private:
  LineQueue& incoming_;
  LineQueue& outgoing_;
  std::function<void()> before_first_grant_;
};

class InProcessChannel final : public WorkerChannel {
 public:
  InProcessChannel(const DispatchWorkerOptions& options,
                   std::function<void()> before_first_grant, int delivery_delay_ms)
      : delivery_delay_(std::chrono::milliseconds(delivery_delay_ms)) {
    thread_ = std::thread([this, options, hook = std::move(before_first_grant)] {
      QueueWorkerLink link(to_worker_, from_worker_, hook);
      RunDispatchWorker(link, options);
      from_worker_.Close();  // flushes nothing; queued lines stay readable
    });
  }

  ~InProcessChannel() override { Close(); }

  serde::Status Send(std::string_view lines) override {
    // A dead worker silently drops the lines; the dispatcher notices via kClosed on
    // its next drain, exactly as with a dead subprocess.
    to_worker_.Push(lines, delivery_delay_);
    return serde::Ok();
  }

  ChannelRead Recv(int timeout_ms, std::string* line) override {
    return from_worker_.Pop(timeout_ms, line);
  }

  int wait_fd() const override { return from_worker_.wait_fd(); }

  void Close() override {
    to_worker_.Close();
    if (thread_.joinable()) {
      thread_.join();
    }
    from_worker_.Close();
  }

 private:
  const Clock::duration delivery_delay_;
  LineQueue to_worker_;
  LineQueue from_worker_;
  std::thread thread_;
};

// ----------------------------------------------------------------------------------
// Process-backed channel: a worker child speaking the protocol on its stdin/stdout
// pipes, or on the TCP socket it dialed back on (`conn_fd` >= 0; the child is then
// kept only for kill/reap).

class ProcessChannel final : public WorkerChannel {
 public:
  explicit ProcessChannel(std::unique_ptr<subprocess::Child> child, int conn_fd = -1)
      : child_(std::move(child)) {
    if (conn_fd >= 0) {
      socket_.emplace(conn_fd, conn_fd, /*owns_fds=*/true);
    }
  }

  ~ProcessChannel() override { Close(); }

  serde::Status Send(std::string_view lines) override {
    return socket_ ? socket_->WriteLines(lines) : child_->WriteLines(lines);
  }

  ChannelRead Recv(int timeout_ms, std::string* line) override {
    switch (socket_ ? socket_->ReadLine(timeout_ms, line)
                    : child_->ReadLine(timeout_ms, line)) {
      case net::ReadStatus::kLine:
        return ChannelRead::kLine;
      case net::ReadStatus::kTimeout:
        return ChannelRead::kTimeout;
      case net::ReadStatus::kClosed:
        break;
    }
    return ChannelRead::kClosed;
  }

  int wait_fd() const override {
    return socket_ ? socket_->read_fd() : child_->stdout_fd();
  }

  void Close() override {
    if (socket_) {
      socket_->CloseWrite();  // half-close: the worker sees EOF and exits cleanly
    }
    child_->Kill();  // also closes the child's stdin
    child_->Wait();
  }

 private:
  std::unique_ptr<subprocess::Child> child_;
  std::optional<net::LineChannel> socket_;
};

}  // namespace

InProcessTransport::InProcessTransport() : InProcessTransport(Options{}) {}

InProcessTransport::InProcessTransport(Options options) : options_(std::move(options)) {}

serde::Status InProcessTransport::Launch(int worker_index,
                                         std::unique_ptr<WorkerChannel>* out) {
  DispatchWorkerOptions worker;
  worker.threads = options_.threads;
  worker.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  if (const auto it = options_.fail_after.find(worker_index);
      it != options_.fail_after.end()) {
    worker.fail_after_results = it->second;
  }
  if (const auto it = options_.hang_after.find(worker_index);
      it != options_.hang_after.end()) {
    worker.hang_after_results = it->second;
  }
  if (const auto it = options_.delay_per_result.find(worker_index);
      it != options_.delay_per_result.end()) {
    worker.delay_per_result_ms = it->second;
  }
  worker.duplicate_results = options_.duplicate_results.count(worker_index) > 0;
  std::function<void()> before_first_grant;
  if (worker_index < options_.first_lease_barrier) {
    before_first_grant = [this] { AwaitFirstLeaseBarrier(); };
  }
  *out = std::make_unique<InProcessChannel>(worker, std::move(before_first_grant),
                                            options_.delivery_delay_ms);
  return serde::Ok();
}

void InProcessTransport::AwaitFirstLeaseBarrier() {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  ++barrier_arrivals_;
  barrier_cv_.notify_all();
  barrier_cv_.wait(lock,
                   [this] { return barrier_arrivals_ >= options_.first_lease_barrier; });
}

SubprocessTransport::SubprocessTransport(
    std::function<std::vector<std::string>(int)> argv_for_worker)
    : argv_for_worker_(std::move(argv_for_worker)) {
  ALERT_CHECK(argv_for_worker_ != nullptr);
}

serde::Status SubprocessTransport::Launch(int worker_index,
                                          std::unique_ptr<WorkerChannel>* out) {
  std::unique_ptr<subprocess::Child> child;
  const serde::Status s = subprocess::Child::SpawnArgv(argv_for_worker_(worker_index),
                                                       &child);
  if (!s) {
    return s;
  }
  *out = std::make_unique<ProcessChannel>(std::move(child));
  return serde::Ok();
}

SocketTransport::SocketTransport(Options options) : options_(std::move(options)) {
  ALERT_CHECK(options_.command_for_worker != nullptr);
}

SocketTransport::~SocketTransport() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

serde::Status SocketTransport::Launch(int worker_index,
                                      std::unique_ptr<WorkerChannel>* out) {
  if (listen_fd_ < 0) {
    const serde::Status s = net::ListenLocalhost(0, &listen_fd_, &port_);
    if (!s) {
      return serde::Wrap("socket transport", s);
    }
  }
  std::unique_ptr<subprocess::Child> child;
  serde::Status s = subprocess::Child::SpawnShell(
      options_.command_for_worker(worker_index, port_), &child);
  if (!s) {
    return serde::Wrap("socket transport launch", s);
  }
  // Launches are serial (the dispatcher's event loop), so the next connection on the
  // listener is this worker's.
  int conn_fd = -1;
  s = net::AcceptWithTimeout(listen_fd_, options_.accept_timeout_ms, &conn_fd);
  if (!s) {
    child->Kill();
    child->Wait();
    return serde::Wrap("socket transport accept (worker " +
                           std::to_string(worker_index) + ")",
                       s);
  }
  *out = std::make_unique<ProcessChannel>(std::move(child), conn_fd);
  return serde::Ok();
}

// ----------------------------------------------------------------------------------
// Worker loop.

namespace {

// Injected mid-lease death: thrown from the result stream, unwound through
// ParallelFor (which rethrows the first worker exception on the caller).
struct InjectedWorkerDeath {};

struct WorkerPlanCache {
  uint64_t fingerprint = 0;
  bool valid = false;
  SweepPlan plan;
};

// Reads lines up to and including the block-terminating bare `end`, returning the
// joined block text.  False when the stream ends first.  `read_line` is the lease's
// line source (pending-first, then the link — see HandleLease).
template <typename ReadLineFn>
bool ReadBlock(const ReadLineFn& read_line, std::string* out) {
  out->clear();
  std::string line;
  for (;;) {
    if (!read_line(&line)) {
      return false;
    }
    out->append(line);
    out->push_back('\n');
    if (line == "end") {
      return true;
    }
  }
}

// Owns the worker's periodic-liveness thread.  RAII on purpose: every exit from
// HandleLease — normal, injected death, a protocol error return, or an exception
// unwinding out of RunSweepUnits — must stop and join this thread *before* the
// lease's locals (the write path, the link) go away, or the heartbeat would write
// to a half-torn-down channel.  Stop() is idempotent so the happy path can stop it
// deterministically before writing lease-done (heartbeats never trail the final
// record); the destructor covers every other path.
class HeartbeatThread {
 public:
  HeartbeatThread(int interval_ms, std::function<void()> tick) {
    if (interval_ms > 0) {
      thread_ = std::thread([this, interval_ms, tick = std::move(tick)] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                             [this] { return stop_; })) {
          tick();
        }
      });
    }
  }

  HeartbeatThread(const HeartbeatThread&) = delete;
  HeartbeatThread& operator=(const HeartbeatThread&) = delete;

  void Stop() {
    if (thread_.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
  }

  ~HeartbeatThread() { Stop(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

serde::Status FailWorker(WorkerLink& link, int seq, const std::string& reason) {
  (void)link.WriteLine(SerializeWorkerError(seq, reason));
  return serde::Error(reason);
}

// One lease: parse the grant, execute its units — polling for revocation between
// replay rows — and stream results.  Status errors are protocol-fatal (the caller
// exits 4); `died` reports injected death (exit 3).  `quiet` and `finished_total`
// persist across leases: a worker that went silent stays silent, and the failure
// injection thresholds count units over the worker's lifetime.  `pending` collects
// non-revoke lines drained mid-lease for the main loop — with lease pipelining the
// dispatcher sends lease N+1 while N executes, so a whole prefetched lease (grant
// through lease-end) routinely arrives via `pending`; every read below therefore
// drains `pending` before touching the link.  `revoked_seqs` carries revocations
// observed for leases this worker has not started yet (a stolen prefetch): such a
// lease is closed unexecuted.  `idle_ms` is how long the worker waited between its
// lease-request and this grant, reported on the lease's first heartbeat.
serde::Status HandleLease(WorkerLink& link, const std::string& header_line,
                          const DispatchWorkerOptions& options, WorkerPlanCache& cache,
                          std::atomic<bool>& quiet, std::atomic<int>& finished_total,
                          std::deque<std::string>& pending,
                          std::set<int>& revoked_seqs, double idle_ms, bool* died) {
  *died = false;
  const auto read_line = [&](std::string* out) {
    if (!pending.empty()) {
      *out = std::move(pending.front());
      pending.pop_front();
      return true;
    }
    return link.ReadLine(out);
  };
  LeaseGrant header;
  serde::Status s = ParseLeaseGrant(header_line, &header);
  if (!s) {
    return FailWorker(link, 0, s.message);
  }

  std::string block;
  if (!ReadBlock(read_line, &block)) {
    return serde::Error("stream closed inside lease spec");
  }
  if (!cache.valid || cache.fingerprint != header.plan_fingerprint) {
    SweepSpec spec;
    s = ParseSweepSpec(block, &spec);
    if (!s) {
      return FailWorker(link, header.seq, "spec: " + s.message);
    }
    cache.plan = BuildSweepPlan(spec);
    cache.fingerprint = PlanFingerprint(cache.plan);
    cache.valid = true;
  }
  if (cache.fingerprint != header.plan_fingerprint) {
    return FailWorker(link, header.seq,
                      "plan fingerprint mismatch: dispatcher sent " +
                          std::to_string(header.plan_fingerprint) + ", spec builds " +
                          std::to_string(cache.fingerprint));
  }
  const SweepPlan& plan = cache.plan;

  ProfileSnapshotStore store;
  std::string line;
  for (int i = 0; i < header.num_snapshots; ++i) {
    if (!read_line(&line)) {
      return serde::Error("stream closed inside lease snapshots");
    }
    SnapshotKey key;
    s = ParseSnapshotKey(line, &key);
    if (!s) {
      return FailWorker(link, header.seq, s.message);
    }
    if (!ReadBlock(read_line, &block)) {
      return serde::Error("stream closed inside a profile snapshot");
    }
    ProfileSnapshot snapshot;
    s = ParseProfileSnapshot(block, &snapshot);
    if (!s) {
      return FailWorker(link, header.seq, "snapshot: " + s.message);
    }
    store.Put(key.task, key.platform, key.seed, key.choice, std::move(snapshot));
  }

  std::vector<int> ids;
  for (;;) {
    if (!read_line(&line)) {
      return serde::Error("stream closed inside lease unit ids");
    }
    int end_seq = 0;
    if (ParseLeaseEnd(line, &end_seq)) {
      if (end_seq != header.seq) {
        return FailWorker(link, header.seq, "lease-end seq mismatch");
      }
      break;
    }
    s = ParseUnitIdLine(line, &ids);
    if (!s) {
      return FailWorker(link, header.seq, s.message);
    }
  }
  if (static_cast<int>(ids.size()) != header.num_units) {
    return FailWorker(link, header.seq, "lease id count mismatch");
  }
  std::vector<SweepUnit> units;
  units.reserve(ids.size());
  for (const int id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= plan.units.size()) {
      return FailWorker(link, header.seq,
                        "leased unit id " + std::to_string(id) + " not in plan");
    }
    units.push_back(plan.units[static_cast<size_t>(id)]);
  }

  // hang_after 0 is the fully silent worker: it said hello and asked for work, but
  // once granted it executes without ever reporting — the pure deadline-retry case.
  if (options.hang_after_results == 0) {
    quiet.store(true);
  }

  // A lease revoked before it ever started (the dispatcher stole the undelivered
  // prefetch): close it with zero results and run nothing — its units are already
  // requeued on the dispatcher's side.
  if (revoked_seqs.erase(header.seq) > 0) {
    if (!quiet.load()) {
      (void)link.WriteLine(SerializeLeaseDone(
          header.seq, 0, static_cast<int>(units.size()), cache.fingerprint));
    }
    return serde::Ok();
  }

  std::atomic<int> delivered{0};  // result lines written for this lease
  // The result stream (serialized by the sweep runner) and the heartbeat thread
  // below both write; one mutex keeps lines whole on the shared byte stream.
  std::mutex write_mutex;
  const auto write_line = [&](const std::string& line_out) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    (void)link.WriteLine(line_out);
  };
  if (!quiet.load()) {
    // The first heartbeat doubles as the idle report: how long this worker sat
    // between asking for work and this grant arriving (~0 when the lease was
    // prefetched — the whole point of pipelining).
    write_line(SerializeHeartbeat(header.seq, 0, idle_ms));
  }

  // Revocation drain: between replay rows the runner polls should_cancel, which
  // pulls whatever the dispatcher sent mid-lease.  A revoke for this lease stops new
  // groups; a revoke for any other seq targets a lease this worker has not started —
  // the prefetched next lease — and is remembered in `revoked_seqs` so that lease is
  // closed unexecuted when its turn comes.  Everything else (a prefetched grant,
  // shutdown racing the lease) is queued for the main loop.
  std::mutex drain_mutex;
  std::atomic<bool> revoked{false};
  const auto drain = [&] {
    const std::lock_guard<std::mutex> lock(drain_mutex);
    std::string drained;
    while (link.TryReadLine(&drained)) {
      int revoke_seq = 0;
      if (ParseLeaseRevoke(drained, &revoke_seq)) {
        if (revoke_seq == header.seq) {
          revoked.store(true);
        } else {
          revoked_seqs.insert(revoke_seq);
        }
      } else {
        pending.push_back(std::move(drained));
      }
    }
  };

  SweepRunOptions run;
  run.threads = options.threads;
  run.warm_start = &store;
  run.should_cancel = [&] {
    drain();
    return revoked.load();
  };
  run.on_result = [&](const SweepUnitResult& result, double unit_ms) {
    if (!quiet.load()) {
      if (options.delay_per_result_ms > 0) {
        // Simulated slow machine: the sleep is part of the unit's observed time, so
        // the dispatcher's cost model sees a consistently slow worker.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.delay_per_result_ms));
        unit_ms += static_cast<double>(options.delay_per_result_ms);
      }
      write_line(SerializeWorkerResult(header.seq, result, unit_ms));
      if (options.duplicate_results) {
        write_line(SerializeWorkerResult(header.seq, result, unit_ms));
      }
      delivered.fetch_add(1);
    }
    const int count = finished_total.fetch_add(1) + 1;
    if (options.hang_after_results > 0 && count >= options.hang_after_results) {
      quiet.store(true);  // keep executing, report nothing: the silent-straggler case
    }
    if (options.fail_after_results >= 0 && count >= options.fail_after_results) {
      throw InjectedWorkerDeath{};
    }
  };

  // Periodic liveness while executing: a replay row can legitimately run longer
  // than the dispatcher's straggler deadline, and silence must mean trouble, not
  // depth of work.  RAII (HeartbeatThread) guarantees the thread is joined before
  // any return below tears down the write path — including exceptions unwinding out
  // of RunSweepUnits, which previously would have skipped the stop entirely.
  HeartbeatThread heartbeat(options.heartbeat_interval_ms, [&] {
    if (!quiet.load()) {
      write_line(SerializeHeartbeat(header.seq, delivered.load()));
    }
  });

  try {
    RunSweepUnits(plan, units, run);
  } catch (const InjectedWorkerDeath&) {
    heartbeat.Stop();
    *died = true;
    return serde::Ok();
  }
  // Deterministic close: no heartbeat may interleave with (or trail) lease-done.
  heartbeat.Stop();
  drain();  // pick up a revoke/shutdown that arrived after the last group
  if (!quiet.load()) {
    write_line(SerializeLeaseDone(header.seq, delivered.load(),
                                  static_cast<int>(units.size()), cache.fingerprint));
  }
  return serde::Ok();
}

}  // namespace

int RunDispatchWorker(WorkerLink& link, const DispatchWorkerOptions& options) {
  if (!link.WriteLine(SerializeWorkerHello())) {
    return 4;
  }
  if (!link.WriteLine(SerializeLeaseRequest())) {
    return 4;
  }
  WorkerPlanCache cache;
  std::atomic<bool> quiet{false};
  std::atomic<int> finished_total{0};
  std::deque<std::string> pending;
  std::set<int> revoked_seqs;  // revokes seen for leases not started yet
  std::string line;
  // Measures grant-wait idle: reset whenever a lease-request goes out, read when the
  // matching grant is picked up (instantly, if the lease was prefetched).
  Clock::time_point waiting_since = Clock::now();
  for (;;) {
    if (!pending.empty()) {
      line = std::move(pending.front());
      pending.pop_front();
    } else if (!link.ReadLine(&line)) {
      return 0;  // dispatcher closed the stream: normal shutdown
    }
    if (line == kShutdownLine) {
      return 0;
    }
    int revoke_seq = 0;
    if (ParseLeaseRevoke(line, &revoke_seq)) {
      // Either a lease this worker has not started yet (a stolen prefetch — remember
      // it so that lease is closed unexecuted) or one already closed (then the seq
      // never reappears and the entry is inert).
      revoked_seqs.insert(revoke_seq);
      continue;
    }
    const double idle_ms = ElapsedMsDouble(waiting_since);
    bool died = false;
    const serde::Status s = HandleLease(link, line, options, cache, quiet,
                                        finished_total, pending, revoked_seqs,
                                        idle_ms, &died);
    if (died) {
      return 3;
    }
    if (!s) {
      std::fprintf(stderr, "dispatch worker: %s\n", s.message.c_str());
      return 4;
    }
    // Pull the next lease.  A quiet worker stops asking — it sits silent until the
    // dispatcher re-plans its units and eventually shuts everyone down.
    if (!quiet.load()) {
      if (!link.WriteLine(SerializeLeaseRequest())) {
        return 0;  // dispatcher is gone; shutdown race
      }
      waiting_since = Clock::now();
    }
  }
}

// ----------------------------------------------------------------------------------
// Dispatcher.

LeaseCostModel::LeaseCostModel(double initial_rate_ms) {
  if (std::isfinite(initial_rate_ms) && initial_rate_ms > 0.0) {
    fleet_rate_ms_ = initial_rate_ms;
    seed_rate_ms_ = initial_rate_ms;
  }
}

void LeaseCostModel::Observe(int worker, double cost, double ms) {
  if (!std::isfinite(cost) || !std::isfinite(ms) || cost <= 0.0 || ms <= 0.0) {
    return;
  }
  // EWMA, alpha 0.3: reactive enough to follow a machine warming up or a noisy
  // neighbor appearing, smooth enough that one odd unit does not whipsaw lease sizes.
  // Every observation feeds both the worker's own rate (its machine truth) and the
  // fleet prior (what a brand-new worker is assumed to run at until it reports).
  constexpr double kAlpha = 0.3;
  const double rate = ms / cost;
  fleet_rate_ms_ =
      fleet_rate_ms_ > 0.0 ? (1.0 - kAlpha) * fleet_rate_ms_ + kAlpha * rate : rate;
  double& worker_rate = worker_rate_ms_[worker];
  if (worker_rate > 0.0) {
    worker_rate = (1.0 - kAlpha) * worker_rate + kAlpha * rate;
  } else if (seed_rate_ms_ > 0.0) {
    // An explicit operator seed is a stated prior for *every* machine: the worker's
    // first sample blends against it rather than replacing it, or one flat-delay
    // unit with an unusually large cost would crater the rate (and with it the
    // cost-scaled straggler deadline).  The *learned* fleet rate deliberately does
    // not get this treatment — it is biased toward whichever machines reported
    // first, and adopting the first own-sample whole separates a skewed fleet's
    // rates in one lease instead of several.
    worker_rate = (1.0 - kAlpha) * seed_rate_ms_ + kAlpha * rate;
  } else {
    worker_rate = rate;
  }
}

double LeaseCostModel::RateFor(int worker) const {
  const auto it = worker_rate_ms_.find(worker);
  if (it != worker_rate_ms_.end() && it->second > 0.0) {
    return it->second;
  }
  return fleet_rate_ms_;
}

bool LeaseCostModel::worker_seeded(int worker) const {
  const auto it = worker_rate_ms_.find(worker);
  return it != worker_rate_ms_.end() && it->second > 0.0;
}

double LeaseCostModel::PredictMs(int worker, double cost) const {
  const double rate = RateFor(worker);
  if (rate <= 0.0 || !std::isfinite(cost) || cost <= 0.0) {
    return 0.0;
  }
  return rate * cost;
}

bool PullLeaseWantsMore(int units_taken, int max_units, int cold_cap, bool rate_known,
                        double predicted_ms, int target_ms) {
  if (units_taken <= 0) {
    return true;  // a lease is never empty while work is pending
  }
  // The max-units clamp comes first, unconditionally: a family of zero-cost units
  // (SweepUnitCost 0 -> PredictMs 0) keeps predicted_ms at 0 forever, and without
  // this bound the lease would swallow an unbounded plan prefix.
  if (units_taken >= max_units) {
    return false;
  }
  if (!rate_known) {
    return units_taken < cold_cap;
  }
  return predicted_ms < static_cast<double>(target_ms);
}

int EffectiveLeaseDeadlineMs(int flat_deadline_ms, double cost_factor,
                             double predicted_max_unit_ms) {
  if (cost_factor <= 0.0 || !std::isfinite(cost_factor) ||
      !(predicted_max_unit_ms > 0.0) || !std::isfinite(predicted_max_unit_ms)) {
    return flat_deadline_ms;
  }
  const double scaled = cost_factor * predicted_max_unit_ms;
  if (scaled <= static_cast<double>(flat_deadline_ms)) {
    return flat_deadline_ms;
  }
  if (scaled >= static_cast<double>(INT_MAX)) {
    return INT_MAX;
  }
  return static_cast<int>(std::ceil(scaled));
}

ProfileSnapshotStore CapturePlanSnapshots(const SweepPlan& plan) {
  ProfileSnapshotStore store;
  // (task, platform, seed) -> a contention to build the experiment with (profiles are
  // contention-independent; any representative works).
  std::map<std::tuple<int, int, uint64_t>, ContentionType> triples;
  for (const SweepUnit& unit : plan.units) {
    triples.emplace(std::tuple<int, int, uint64_t>{static_cast<int>(unit.cell.task),
                                                   static_cast<int>(unit.cell.platform),
                                                   unit.seed},
                    unit.cell.contention);
  }
  for (const auto& [key, contention] : triples) {
    const TaskId task = static_cast<TaskId>(std::get<0>(key));
    const PlatformId platform = static_cast<PlatformId>(std::get<1>(key));
    const uint64_t seed = std::get<2>(key);
    ExperimentOptions options;
    options.num_inputs = plan.spec.num_inputs;
    options.seed = seed;
    options.contention_window = plan.spec.contention_window;
    options.contention_scale = plan.spec.contention_scale;
    options.profile_noise_sigma = plan.spec.profile_noise_sigma;
    const Experiment experiment(task, platform, contention, options);
    for (const DnnSetChoice choice :
         {DnnSetChoice::kTraditionalOnly, DnnSetChoice::kAnytimeOnly,
          DnnSetChoice::kBoth}) {
      store.Put(task, platform, seed, choice,
                CaptureProfileSnapshot(experiment.stack(choice).space()));
    }
  }
  return store;
}

namespace {

struct WorkerState {
  std::unique_ptr<WorkerChannel> channel;
  int launch_index = -1;
  // kIdle: connected, no outstanding lease (wants_lease marks a pending request).
  // kWorking: executing a lease.  kRevoking: lease-revoke sent (steal), remainder
  // already requeued; back to kIdle on its lease-done.  kStraggler: deadline
  // expired, remainder requeued; late results still merge, no new work until its
  // lease-done.  kDead: gone.
  enum class Mode { kIdle, kWorking, kRevoking, kStraggler, kDead } mode = Mode::kIdle;
  bool wants_lease = false;  // lease-request received and not yet answered
  int seq = -1;              // current (or last) lease
  std::vector<int> assigned_ids;
  // The pipelined next lease (pipeline_leases): already sent to the worker, not yet
  // started there.  Promoted to the active lease on this lease's lease-done, or
  // revoked first by steals/stragglers (its units are undelivered inventory —
  // nothing is executing them, so reclaiming them is free).
  int prefetch_seq = -1;
  std::vector<int> prefetch_ids;
  Clock::time_point last_activity;  // any line (straggler deadline input)
  Clock::time_point lease_start;
  Clock::time_point last_result;  // last result line (steal heuristic input)
};

// Everything a lease message needs that is constant per dispatch: the spec and each
// snapshot's wire text are serialized once here, then spliced into every lease —
// snapshots are the bulk of the payload and identical across leases.
struct LeaseContext {
  const SweepPlan* plan;
  std::string spec_text;
  // (task, platform, seed) -> the ready-to-send text of its three snapshots (each:
  // `snapshot-for` key line + profile-snapshot block).
  std::map<std::tuple<int, int, uint64_t>, std::string> snapshot_text;
  uint64_t fingerprint = 0;

  void CacheSnapshots(const ProfileSnapshotStore& store) {
    for (const auto& [key, snapshot] : store.entries()) {
      SnapshotKey snapshot_key;
      snapshot_key.task = static_cast<TaskId>(std::get<0>(key));
      snapshot_key.platform = static_cast<PlatformId>(std::get<1>(key));
      snapshot_key.seed = std::get<2>(key);
      snapshot_key.choice = static_cast<DnnSetChoice>(std::get<3>(key));
      std::string& text = snapshot_text[std::tuple<int, int, uint64_t>{
          std::get<0>(key), std::get<1>(key), std::get<2>(key)}];
      text += SerializeSnapshotKey(snapshot_key);
      text += '\n';
      text += SerializeProfileSnapshot(snapshot);
    }
  }
};

// Sends one lease (grant + spec + the snapshots its units need + ids + lease-end) as
// one message: one Send, so one write on a process transport instead of one TCP
// segment per line.  A Send error means the worker is gone; the caller handles
// requeueing.
serde::Status SendLease(const LeaseContext& context, WorkerState& worker, int seq,
                        std::span<const int> ids) {
  const SweepPlan& plan = *context.plan;
  std::set<std::tuple<int, int, uint64_t>> triples;
  for (const int id : ids) {
    const SweepUnit& unit = plan.units[static_cast<size_t>(id)];
    triples.emplace(static_cast<int>(unit.cell.task),
                    static_cast<int>(unit.cell.platform), unit.seed);
  }

  LeaseGrant header;
  header.seq = seq;
  header.plan_fingerprint = context.fingerprint;
  header.num_units = static_cast<int>(ids.size());
  header.num_snapshots = static_cast<int>(triples.size()) * 3;

  std::string message = SerializeLeaseGrant(header);
  message += '\n';
  message += context.spec_text;
  for (const auto& key : triples) {
    const auto it = context.snapshot_text.find(key);
    ALERT_CHECK(it != context.snapshot_text.end());  // CapturePlanSnapshots covers all
    message += it->second;
  }
  for (const std::string& id_line : SerializeUnitIdLines(ids)) {
    message += id_line;
    message += '\n';
  }
  message += SerializeLeaseEnd(seq);
  message += '\n';
  return worker.channel->Send(message);
}

// One protocol line as a Send payload.
std::string Line(std::string line) {
  line += '\n';
  return line;
}

}  // namespace

serde::Status DispatchSweep(const SweepPlan& plan, Transport& transport,
                            const DispatchOptions& options,
                            std::vector<CellResult>* out, DispatchStats* stats) {
  DispatchStats local_stats;
  DispatchStats& st = stats != nullptr ? *stats : local_stats;
  st = DispatchStats{};
  out->clear();
  const Clock::time_point start = Clock::now();
  LeaseCostModel model(options.initial_cost_rate_ms);
  const auto finish = [&](serde::Status s) {
    st.elapsed_ms = ElapsedMsDouble(start);
    st.cost_model_seeded = model.seeded();
    // NaN, not 0, when never seeded: a 0 here is indistinguishable from a genuinely
    // ~0 observed rate, and downstream formatters must check cost_model_seeded.
    st.cost_rate_ms = model.seeded() ? model.rate_ms()
                                     : std::numeric_limits<double>::quiet_NaN();
    st.worker_cost_rates = model.worker_rates();
    return s;
  };
  if (options.num_workers <= 0) {
    return finish(serde::Error("dispatch needs at least one worker"));
  }
  const int max_launches = options.max_worker_launches > 0
                               ? options.max_worker_launches
                               : options.num_workers + 8;
  const int target_lease_ms = std::max(1, options.target_lease_ms);
  const int max_lease_units = std::max(1, options.max_lease_units);

  const auto log = [&](const std::string& event) {
    if (options.on_event) {
      options.on_event(event);
    }
  };

  LeaseContext context;
  context.plan = &plan;
  const ProfileSnapshotStore snapshots = CapturePlanSnapshots(plan);
  context.CacheSnapshots(snapshots);
  context.spec_text = SerializeSweepSpec(plan.spec);
  context.fingerprint = PlanFingerprint(plan);

  SweepMergeAccumulator accumulator(plan);
  // Preseeded results (cache hits) are first-class deliveries: merged before any
  // worker exists, so no lease below ever contains — let alone re-runs — their units.
  for (const SweepUnitResult& result : options.preseeded_results) {
    bool newly = false;
    const serde::Status s = accumulator.Add(result, &newly);
    if (!s) {
      return finish(serde::Wrap("preseeded result", s));
    }
    if (newly) {
      ++st.preseeded;
    }
  }
  // Checkpointing: the journal starts as every preseeded result, written once and
  // atomically; each newly merged result is then buffered and appended in batches of
  // `checkpoint_every`.  A checkpoint that cannot be written is a loud dispatch
  // failure, not a warning: the operator asked for crash durability and is not
  // getting it.
  SweepCheckpointJournal journal;
  int fresh_results = 0;  // newly recorded worker deliveries (crash-injection input)
  const auto flush_journal = [&]() -> serde::Status {
    if (journal.pending() == 0) {
      return serde::Ok();  // nothing buffered, or no checkpoint at all
    }
    const serde::Status s = journal.Flush();
    if (!s) {
      return serde::Wrap("checkpoint append", s);
    }
    ++st.checkpoints_written;
    return serde::Ok();
  };
  if (!options.checkpoint_path.empty()) {
    SweepCheckpoint base;
    base.plan_fingerprint = context.fingerprint;
    base.results = accumulator.RecordedResults();
    const serde::Status s = journal.Open(options.checkpoint_path, base);
    if (!s) {
      return finish(serde::Wrap("checkpoint write", s));
    }
    ++st.checkpoints_written;
  }

  if (accumulator.complete()) {
    log("every unit preseeded; nothing to dispatch");
    return finish(accumulator.Finalize(out));
  }

  std::vector<std::unique_ptr<WorkerState>> workers;
  std::deque<int> retry_queue;  // unit ids awaiting re-grant (revokes, failures)
  // Fresh work is a cursor over the plan's enumeration order — never a materialized
  // per-worker list.  `in_flight[id]` marks ids inside a live lease; an id leaves
  // that state by being recorded or requeued, so skipping flagged ids while the
  // cursor advances can never lose a unit.
  size_t fresh_cursor = 0;
  std::vector<char> in_flight(plan.units.size(), 0);
  int next_launch_index = 0;
  int next_seq = 0;

  const auto skip_fresh = [&] {
    while (fresh_cursor < plan.units.size() &&
           (accumulator.IsRecorded(static_cast<int>(fresh_cursor)) ||
            in_flight[fresh_cursor] != 0)) {
      ++fresh_cursor;
    }
  };
  const auto retry_has_work = [&] {
    for (const int id : retry_queue) {
      if (!accumulator.IsRecorded(id) && in_flight[static_cast<size_t>(id)] == 0) {
        return true;
      }
    }
    return false;
  };

  const auto pending_work_exists = [&] {
    skip_fresh();
    return fresh_cursor < plan.units.size() || retry_has_work();
  };

  const auto launch_worker = [&]() -> WorkerState* {
    while (next_launch_index < max_launches) {
      const int index = next_launch_index++;
      auto state = std::make_unique<WorkerState>();
      const serde::Status s = transport.Launch(index, &state->channel);
      if (!s) {
        ++st.failed_launches;
        log("launch " + std::to_string(index) + " failed: " + s.message);
        continue;
      }
      ++st.workers_launched;
      state->launch_index = index;
      state->mode = WorkerState::Mode::kIdle;
      state->last_activity = Clock::now();
      workers.push_back(std::move(state));
      return workers.back().get();
    }
    return nullptr;
  };

  // Requeues the not-yet-merged remainder of a worker's lease.
  const auto requeue_unfinished = [&](WorkerState& worker) {
    int requeued = 0;
    for (const int id : worker.assigned_ids) {
      if (!accumulator.IsRecorded(id)) {
        retry_queue.push_back(id);
        in_flight[static_cast<size_t>(id)] = 0;
        ++requeued;
      }
    }
    worker.assigned_ids.clear();
    return requeued;
  };

  // Requeues a worker's undelivered prefetched lease (nothing executes those units,
  // so this loses no work).
  const auto requeue_prefetch = [&](WorkerState& worker) {
    int requeued = 0;
    for (const int id : worker.prefetch_ids) {
      if (!accumulator.IsRecorded(id)) {
        retry_queue.push_back(id);
        in_flight[static_cast<size_t>(id)] = 0;
        ++requeued;
      }
    }
    worker.prefetch_ids.clear();
    worker.prefetch_seq = -1;
    return requeued;
  };

  const auto fail_worker = [&](WorkerState& worker, const std::string& why) {
    if (worker.mode == WorkerState::Mode::kDead) {
      return;
    }
    log("worker " + std::to_string(worker.launch_index) + " failed: " + why);
    ++st.worker_failures;
    requeue_unfinished(worker);
    requeue_prefetch(worker);
    worker.mode = WorkerState::Mode::kDead;
    worker.wants_lease = false;
    worker.channel->Close();
  };

  // Builds the next lease for `worker`: requeued work first (it is the
  // oldest and thus the likeliest tail of the critical path), then fresh plan-order
  // units.  Size is cost-fed *at this worker's own rate* — a slow machine gets a
  // proportionally shorter unit prefix for the same target_lease_ms, which is how
  // per-worker rates keep a heterogeneous fleet's leases finishing together — with
  // small fixed leases while the model is still cold so it warms on observations.
  const auto build_pull_lease = [&](const WorkerState& worker, bool* is_retry) {
    std::vector<int> ids;
    double predicted = 0.0;
    const int remaining = static_cast<int>(accumulator.num_expected() -
                                           accumulator.num_recorded());
    const int cold_cap =
        std::clamp(remaining / (4 * std::max(1, options.num_workers)), 1, 8);
    const bool rate_known = model.RateFor(worker.launch_index) > 0.0;
    const auto want_more = [&] {
      return PullLeaseWantsMore(static_cast<int>(ids.size()), max_lease_units,
                                cold_cap, rate_known, predicted, target_lease_ms);
    };
    const auto take = [&](int id) {
      ids.push_back(id);
      in_flight[static_cast<size_t>(id)] = 1;
      predicted += model.PredictMs(
          worker.launch_index,
          SweepUnitCost(plan.units[static_cast<size_t>(id)]));
    };
    while (want_more()) {
      int id = -1;
      while (!retry_queue.empty()) {
        const int candidate = retry_queue.front();
        retry_queue.pop_front();
        if (!accumulator.IsRecorded(candidate) &&
            in_flight[static_cast<size_t>(candidate)] == 0) {
          id = candidate;
          break;
        }
      }
      if (id < 0) {
        break;
      }
      *is_retry = true;
      take(id);
    }
    while (want_more()) {
      skip_fresh();
      if (fresh_cursor >= plan.units.size()) {
        break;
      }
      take(static_cast<int>(fresh_cursor++));
    }
    // Row close: a warm fresh lease that stopped inside a replay row takes the rest
    // of it, so the row's static searches share their replays on one worker.
    if (rate_known && !*is_retry && !ids.empty()) {
      const SweepReplayRow row = ReplayRowOf(plan.units[static_cast<size_t>(ids.back())]);
      for (skip_fresh(); fresh_cursor < plan.units.size() &&
                         ReplayRowOf(plan.units[fresh_cursor]) == row;
           skip_fresh()) {
        take(static_cast<int>(fresh_cursor++));
      }
    }
    return ids;
  };

  // Grants a lease to a requesting worker; false when no work is pending.
  const auto grant_lease = [&](WorkerState& worker) {
    bool is_retry = false;
    std::vector<int> ids = build_pull_lease(worker, &is_retry);
    if (ids.empty()) {
      return false;
    }
    for (const int id : ids) {
      ALERT_CHECK(!accumulator.IsRecorded(id));  // never re-run a completed unit
    }
    const int seq = next_seq++;
    ++st.leases_granted;
    if (is_retry) {
      ++st.retry_assignments;
    }
    if (options.on_assign) {
      options.on_assign(worker.launch_index, seq, ids);
    }
    worker.seq = seq;
    worker.assigned_ids = std::move(ids);
    worker.mode = WorkerState::Mode::kWorking;
    worker.wants_lease = false;
    worker.last_activity = Clock::now();
    worker.lease_start = worker.last_activity;
    worker.last_result = worker.last_activity;
    const serde::Status s = SendLease(context, worker, seq, worker.assigned_ids);
    if (!s) {
      fail_worker(worker, "send: " + s.message);
    }
    return true;
  };

  // Pipelining: send a working worker its *next* lease while the current one drains.
  // The worker's line source is pending-first, so the prefetched grant is consumed
  // the instant lease-done goes out — the request/grant round trip (the whole idle
  // window on an ssh-style transport) disappears.  One outstanding prefetch per
  // worker; false when no work is pending or the send fails.
  const auto prefetch_lease = [&](WorkerState& worker) {
    bool is_retry = false;
    std::vector<int> ids = build_pull_lease(worker, &is_retry);
    if (ids.empty()) {
      return false;
    }
    for (const int id : ids) {
      ALERT_CHECK(!accumulator.IsRecorded(id));
    }
    const int seq = next_seq++;
    ++st.leases_granted;
    ++st.leases_pipelined;
    if (is_retry) {
      ++st.retry_assignments;
    }
    if (options.on_assign) {
      options.on_assign(worker.launch_index, seq, ids);
    }
    worker.prefetch_seq = seq;
    worker.prefetch_ids = std::move(ids);
    const serde::Status s = SendLease(context, worker, seq, worker.prefetch_ids);
    if (!s) {
      fail_worker(worker, "send: " + s.message);
      return false;
    }
    return true;
  };

  // Steal: an idle requester with nothing pending takes the remainder of the
  // most-loaded working lease.  Guards against ping-pong: the victim must hold at
  // least two unmerged units, its lease must be older than the target (a lease the
  // thief just received back cannot be re-stolen immediately), and it must actually
  // look overloaded — predicted remainder well past the target, or silent since its
  // last result for twice the target.
  const auto try_steal = [&]() {
    if (!options.enable_steal || !model.seeded()) {
      return false;
    }
    // Undelivered prefetches first: those units are pure inventory — no worker has
    // started them, so reclaiming them for an idle peer duplicates nothing and needs
    // none of the anti-ping-pong guards below.  Biggest prefetch wins.
    WorkerState* prefetch_victim = nullptr;
    int prefetch_unmerged = 0;
    for (const auto& worker_ptr : workers) {
      WorkerState& candidate = *worker_ptr;
      if (candidate.mode != WorkerState::Mode::kWorking ||
          candidate.prefetch_seq < 0) {
        continue;
      }
      int unmerged = 0;
      for (const int id : candidate.prefetch_ids) {
        if (!accumulator.IsRecorded(id)) {
          ++unmerged;
        }
      }
      if (unmerged > prefetch_unmerged) {
        prefetch_victim = &candidate;
        prefetch_unmerged = unmerged;
      }
    }
    if (prefetch_victim != nullptr) {
      (void)prefetch_victim->channel->Send(
          Line(SerializeLeaseRevoke(prefetch_victim->prefetch_seq)));
      const int stolen = requeue_prefetch(*prefetch_victim);
      ++st.lease_revocations;
      st.units_stolen += stolen;
      log("reclaimed " + std::to_string(stolen) +
          " prefetched units from worker " +
          std::to_string(prefetch_victim->launch_index));
      // The victim keeps executing its active lease untouched: no mode change.
      return stolen > 0;
    }
    WorkerState* victim = nullptr;
    double victim_remaining = 0.0;
    for (const auto& worker_ptr : workers) {
      WorkerState& candidate = *worker_ptr;
      if (candidate.mode != WorkerState::Mode::kWorking) {
        continue;
      }
      if (ElapsedMs(candidate.lease_start) <= target_lease_ms) {
        continue;
      }
      int unmerged = 0;
      double remaining_ms = 0.0;
      for (const int id : candidate.assigned_ids) {
        if (!accumulator.IsRecorded(id)) {
          ++unmerged;
          // Remaining work valued at the victim's own rate: on a heterogeneous
          // fleet the slow machine's small lease is genuinely a lot of *time*, and
          // that — not the fleet-average view of it — is what the thief relieves.
          remaining_ms += model.PredictMs(
              candidate.launch_index,
              SweepUnitCost(plan.units[static_cast<size_t>(id)]));
        }
      }
      if (unmerged < 2) {
        continue;  // nothing worth splitting; first-wins covers the unit in flight
      }
      const bool overloaded =
          remaining_ms > 1.5 * static_cast<double>(target_lease_ms) ||
          ElapsedMs(candidate.last_result) > 2 * target_lease_ms;
      if (!overloaded) {
        continue;
      }
      if (victim == nullptr || remaining_ms > victim_remaining) {
        victim = &candidate;
        victim_remaining = remaining_ms;
      }
    }
    if (victim == nullptr) {
      return false;
    }
    (void)victim->channel->Send(Line(SerializeLeaseRevoke(victim->seq)));
    const int stolen = requeue_unfinished(*victim);
    victim->mode = WorkerState::Mode::kRevoking;
    ++st.lease_revocations;
    st.units_stolen += stolen;
    log("stole " + std::to_string(stolen) + " units from worker " +
        std::to_string(victim->launch_index) + " (lease " +
        std::to_string(victim->seq) + ")");
    return stolen > 0;
  };

  // Handles one parsed worker line; returns a fatal dispatch error or Ok.
  const auto handle_message = [&](WorkerState& worker,
                                  const std::string& line) -> serde::Status {
    worker.last_activity = Clock::now();
    WorkerMessage message;
    const serde::Status parsed = ParseWorkerMessage(line, &message);
    if (!parsed) {
      fail_worker(worker, parsed.message);
      return serde::Ok();
    }
    switch (message.kind) {
      case WorkerMessage::Kind::kHello:
        break;
      case WorkerMessage::Kind::kHeartbeat:
        if (message.idle_ms >= 0.0) {
          st.worker_idle_ms += message.idle_ms;  // grant-wait report (first heartbeat)
        }
        break;
      case WorkerMessage::Kind::kLeaseRequest:
        worker.wants_lease = true;
        break;
      case WorkerMessage::Kind::kResult: {
        ++st.results_received;
        worker.last_result = worker.last_activity;
        bool newly = false;
        const serde::Status s = accumulator.Add(message.result, &newly);
        if (!s) {
          // Unknown id or conflicting payload: the sweep's determinism contract is
          // broken — refuse to produce a CSV that might be wrong.
          return serde::Wrap(
              "worker " + std::to_string(worker.launch_index) + " result", s);
        }
        if (!newly) {
          ++st.duplicate_results;
        }
        if (!message.result.skipped) {
          model.Observe(worker.launch_index,
                        SweepUnitCost(plan.units[static_cast<size_t>(
                            message.result.unit_id)]),
                        message.unit_ms);
        }
        if (options.on_result) {
          options.on_result(worker.launch_index, message.result, newly);
        }
        if (newly) {
          ++fresh_results;
          // Crash injection fires *before* a coincident append, like a real kill
          // would: whatever the journal already held is all a resume gets.
          if (options.crash_after_results >= 0 &&
              fresh_results >= options.crash_after_results) {
            return serde::Error("injected dispatcher crash after " +
                                std::to_string(fresh_results) + " results");
          }
          if (!options.checkpoint_path.empty()) {
            journal.Add(message.result);
            if (journal.pending() >= std::max(1, options.checkpoint_every)) {
              const serde::Status cs = flush_journal();
              if (!cs) {
                return cs;
              }
            }
          }
        }
        break;
      }
      case WorkerMessage::Kind::kLeaseDone:
        if (message.plan_fingerprint != context.fingerprint) {
          fail_worker(worker, "lease-done fingerprint mismatch");
          break;
        }
        if (message.seq == worker.seq) {
          // Whatever the lease still owed (a revoked remainder, a straggler's
          // abandoned units) is requeued; then the worker either promotes its
          // prefetched lease — it is already executing it — or goes idle.
          requeue_unfinished(worker);
          if (worker.prefetch_seq >= 0) {
            worker.seq = worker.prefetch_seq;
            worker.assigned_ids = std::move(worker.prefetch_ids);
            worker.prefetch_seq = -1;
            worker.prefetch_ids.clear();
            worker.mode = WorkerState::Mode::kWorking;
            worker.lease_start = worker.last_activity;
            worker.last_result = worker.last_activity;
          } else {
            worker.mode = WorkerState::Mode::kIdle;
          }
        }
        // A lease-done for any other seq is the worker closing a lease the
        // dispatcher already wrote off (a revoked prefetch replies done=0; a
        // straggler's abandoned lease drains late): its units were requeued when
        // the revoke was issued, so there is nothing left to do here.
        break;
      case WorkerMessage::Kind::kError:
        fail_worker(worker, "worker-error: " + message.reason);
        break;
    }
    return serde::Ok();
  };

  const auto close_all = [&] {
    for (const auto& w : workers) {
      w->channel->Close();
    }
  };

  // Initial fleet: workers pull their own work, so this only sizes the pool — at
  // most one worker per pending unit, so a mostly-preseeded incremental re-run
  // never spins up idle workers.
  {
    const int remaining = static_cast<int>(accumulator.num_expected() -
                                           accumulator.num_recorded());
    const int fleet = std::min(options.num_workers, remaining);
    for (int i = 0; i < fleet; ++i) {
      if (launch_worker() == nullptr) {
        break;
      }
    }
  }
  if (workers.empty()) {
    return finish(serde::Error("no worker could be launched (after " +
                               std::to_string(st.failed_launches) +
                               " failed launches)"));
  }

  // A working lease's straggler deadline.  Cost-scaled: a lease whose largest
  // unmerged unit is predicted to run long gets proportionally more silence budget,
  // so long units with heartbeats disabled do not trip a flat deadline.
  const auto lease_deadline_ms = [&](const WorkerState& worker) {
    double predicted_max = 0.0;
    for (const int id : worker.assigned_ids) {
      if (!accumulator.IsRecorded(id)) {
        // The worker's *own* rate: a slow machine legitimately needs longer per
        // unit, so its deadline stretches with its observed speed instead of the
        // fleet average declaring it a straggler while healthy.
        predicted_max = std::max(
            predicted_max,
            model.PredictMs(worker.launch_index,
                            SweepUnitCost(plan.units[static_cast<size_t>(id)])));
      }
    }
    return EffectiveLeaseDeadlineMs(options.straggler_deadline_ms,
                                    options.straggler_cost_factor, predicted_max);
  };

  // Sleeps until a live channel has a line (or closed) or the nearest straggler,
  // replacement or global deadline is due.  kMaxIdleWaitMs caps the sleep for the
  // timers not tracked here — steal eligibility ages with the victim's lease.
  constexpr int kMaxIdleWaitMs = 20;
  std::vector<pollfd> wait_fds;
  const auto wait_for_traffic = [&] {
    int timeout_ms = kMaxIdleWaitMs;
    const auto due_by = [&](Clock::time_point since, int budget_ms) {
      timeout_ms = std::clamp(budget_ms - ElapsedMs(since) + 1, 0, timeout_ms);
    };
    if (options.global_deadline_ms > 0) {
      due_by(start, options.global_deadline_ms);
    }
    wait_fds.clear();
    for (const auto& worker_ptr : workers) {
      const WorkerState& worker = *worker_ptr;
      if (worker.mode == WorkerState::Mode::kDead) {
        continue;
      }
      wait_fds.push_back(pollfd{worker.channel->wait_fd(), POLLIN, 0});
      if (options.straggler_deadline_ms > 0 &&
          worker.mode == WorkerState::Mode::kWorking) {
        due_by(worker.last_activity, lease_deadline_ms(worker));
      } else if (options.straggler_deadline_ms > 0 &&
                 worker.mode == WorkerState::Mode::kIdle && !worker.wants_lease) {
        due_by(worker.last_activity, options.straggler_deadline_ms);
      }
    }
    // EINTR or a timeout simply ends the wait: the next pass re-derives everything.
    (void)::poll(wait_fds.data(), wait_fds.size(), timeout_ms);
  };

  std::string line;
  while (!accumulator.complete()) {
    bool progress = false;

    for (const auto& worker_ptr : workers) {
      WorkerState& worker = *worker_ptr;
      if (worker.mode == WorkerState::Mode::kDead) {
        continue;
      }
      for (;;) {
        const ChannelRead read = worker.channel->Recv(0, &line);
        if (read == ChannelRead::kLine) {
          progress = true;
          const serde::Status s = handle_message(worker, line);
          if (!s) {
            close_all();
            return finish(s);
          }
          if (accumulator.complete()) {
            break;
          }
          continue;
        }
        if (read == ChannelRead::kClosed) {
          if (worker.mode == WorkerState::Mode::kIdle && worker.assigned_ids.empty()) {
            // A worker that exits with nothing outstanding is not a failure.
            worker.mode = WorkerState::Mode::kDead;
            worker.wants_lease = false;
            worker.channel->Close();
          } else {
            fail_worker(worker, "channel closed mid-lease");
          }
        }
        break;
      }
      if (accumulator.complete()) {
        break;
      }
      if (worker.mode == WorkerState::Mode::kWorking &&
          options.straggler_deadline_ms > 0) {
        const int deadline = lease_deadline_ms(worker);
        if (ElapsedMs(worker.last_activity) > deadline) {
          ++st.stragglers;
          log("worker " + std::to_string(worker.launch_index) +
              " exceeded its straggler deadline (" + std::to_string(deadline) +
              " ms); revoking and requeueing its unfinished units");
          // The undelivered prefetch goes first — its units are pure inventory and
          // must not sit on a silent worker.
          if (worker.prefetch_seq >= 0) {
            (void)worker.channel->Send(Line(SerializeLeaseRevoke(worker.prefetch_seq)));
            requeue_prefetch(worker);
            ++st.lease_revocations;
          }
          // Best-effort: a hung-but-alive worker stops between units, a dead one
          // never reads it.  Either way the units are requeued now.
          (void)worker.channel->Send(Line(SerializeLeaseRevoke(worker.seq)));
          ++st.lease_revocations;
          requeue_unfinished(worker);
          // Not killed and not schedulable: late results still merge, but no new
          // work until it closes the abandoned lease with lease-done.
          worker.mode = WorkerState::Mode::kStraggler;
        }
      }
    }
    if (accumulator.complete()) {
      break;
    }

    // Grant pump: serve every waiting lease-request while work is pending; once the
    // queues run dry, let the first still-waiting requester steal.
    for (const auto& worker_ptr : workers) {
      WorkerState& worker = *worker_ptr;
      if (worker.mode != WorkerState::Mode::kIdle || !worker.wants_lease) {
        continue;
      }
      if (!pending_work_exists()) {
        if (!try_steal()) {
          break;  // nothing to grant and nothing worth stealing this round
        }
      }
      if (grant_lease(worker)) {
        progress = true;
      }
    }

    // Prefetch pump (after the grant pump, so idle requesters are never starved by
    // inventory parked on busy peers): every working worker without an outstanding
    // prefetch gets its next lease queued behind the active one.
    if (options.pipeline_leases) {
      for (const auto& worker_ptr : workers) {
        WorkerState& worker = *worker_ptr;
        if (worker.mode != WorkerState::Mode::kWorking || worker.prefetch_seq >= 0) {
          continue;
        }
        if (!pending_work_exists()) {
          break;
        }
        if (prefetch_lease(worker)) {
          progress = true;
        }
      }
    }

    // Replacement pump: pending work and nobody who could plausibly take it — every
    // live worker is executing nothing, asking for nothing, and past the silence
    // deadline (a just-launched worker whose hello is still in flight counts as
    // plausibly coming, so a healthy startup never burns launch budget).
    if (pending_work_exists()) {
      bool anyone_might_work = false;
      for (const auto& worker_ptr : workers) {
        switch (worker_ptr->mode) {
          case WorkerState::Mode::kWorking:
          case WorkerState::Mode::kRevoking:
            anyone_might_work = true;
            break;
          case WorkerState::Mode::kIdle:
            if (worker_ptr->wants_lease ||
                options.straggler_deadline_ms <= 0 ||
                ElapsedMs(worker_ptr->last_activity) <= options.straggler_deadline_ms) {
              anyone_might_work = true;
            }
            break;
          default:
            break;
        }
      }
      if (!anyone_might_work) {
        WorkerState* replacement = launch_worker();
        if (replacement == nullptr) {
          close_all();
          return finish(serde::Error(
              "launch budget exhausted with " +
              std::to_string(accumulator.num_expected() -
                             accumulator.num_recorded()) +
              " units unfinished (workers kept failing or stalling)"));
        }
        progress = true;  // its hello + lease-request arrive on the next drain
      }
    }

    if (options.global_deadline_ms > 0 &&
        ElapsedMs(start) > options.global_deadline_ms) {
      close_all();
      return finish(serde::Error("dispatch exceeded its global deadline with " +
                                 std::to_string(accumulator.num_expected() -
                                                accumulator.num_recorded()) +
                                 " units unfinished"));
    }
    if (!progress) {
      wait_for_traffic();
    }
  }

  for (const auto& worker : workers) {
    if (worker->mode != WorkerState::Mode::kDead) {
      (void)worker->channel->Send(Line(std::string(kShutdownLine)));
    }
    worker->channel->Close();
  }
  // The journal's tail: a resume after this point preseeds every unit and finalizes
  // without launching a worker.
  {
    const serde::Status s = flush_journal();
    if (!s) {
      return finish(s);
    }
  }
  return finish(accumulator.Finalize(out));
}

}  // namespace alert

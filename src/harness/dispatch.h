// Pull-based worker-pool dispatcher: workers lease small batches of sweep units,
// observed per-unit timings feed a live cost model that sizes the next lease, and
// likely stragglers are re-planned (lease revocation / work stealing) before their
// silence deadline.  (Protocol: dispatch_protocol.h; unit enumeration: sweep_plan.h;
// execution + aggregation: sweep_runner.h.)
//
// The sharded sweep pipeline (PR 3) made every unit of the Table 4 evaluation a pure
// function of (spec, unit id) and the merge a pure function of (plan, per-unit
// results).  The first dispatcher (PR 4) pushed static LPT partitions once and only
// re-partitioned on failure — at million-unit plans that strands throughput behind
// the slowest worker.  This version inverts control:
//
// == The pull loop ==
//
// Workers say `lease-request` whenever they are idle; the dispatcher answers with a
// lease — a prefix of the still-pending unit ids (plan enumeration order, streamed
// via SweepUnitStream: per-worker unit lists are never materialized).  Lease size is
// cost-fed: every `result` line carries the unit's observed wall time, an EWMA over
// (observed ms / SweepUnitCost) turns that into a live ms-per-cost rate, and the next
// lease takes units until their predicted time reaches `target_lease_ms`.  Before the
// rate is known, leases stay small (a few units) so the model warms quickly.
//
// Stealing and revocation: when a worker asks for work and nothing is pending, the
// dispatcher revokes the lease of the most-loaded working peer (`lease-revoke`),
// requeues its unfinished units, and grants them to the requester.  The victim stops
// between units; results that raced the revocation merge first-wins, so a steal can
// duplicate at most the unit in flight — never corrupt the output.  The same revoke
// path serves the straggler deadline, which is now cost-scaled: a lease whose largest
// unit is predicted to run long gets proportionally more silence budget (see
// EffectiveLeaseDeadlineMs), so long units with heartbeats disabled stop tripping the
// flat deadline.
//
// The invariant that makes all of this trustworthy is unchanged from PR 4 and tested
// under randomized kill x revoke x steal schedules: for any worker count, transport,
// failure schedule, or steal timing, the aggregate CSV is byte-identical to
// `sweep_shard --shards=1 --csv` (results are deterministic per unit; the accumulator
// is order-independent and first-wins on redelivery; Finalize walks the plan in its
// enumeration order).
//
// == Transports ==
//
// A `Transport` launches workers and yields `WorkerChannel`s (line-oriented, same
// grammar everywhere):
//   InProcessTransport  — worker loop on a std::thread with in-memory queues; zero
//                         process overhead, plus deterministic failure injection for
//                         tests (die / go quiet after N results, duplicate delivery,
//                         per-result delay to fake a slow machine, a first-lease
//                         barrier that pins which workers get work);
//   SubprocessTransport — one child process per worker, stdin/stdout pipes
//                         (src/common/subprocess.h).  The argv is either
//                         `sweep_shard --worker ...` or `/bin/sh -c TEMPLATE`, so
//                         `ssh host sweep_shard --worker` turns any reachable
//                         machine into a worker with no shared filesystem;
//   SocketTransport     — real TCP: the dispatcher listens on 127.0.0.1, launches
//                         each worker from a {port}-templated command line
//                         (`sweep_shard --worker --connect=127.0.0.1:{port}`), and
//                         speaks the same line protocol over the socket.
//
// Thread-safety: DispatchSweep runs a single-threaded event loop; Transport/
// WorkerChannel implementations are called only from that thread (the in-process
// transport synchronizes its internal queues itself).  On the worker side the
// revoke drain calls WorkerLink::TryReadLine from runner threads, serialized by the
// worker's own mutex.
#ifndef SRC_HARNESS_DISPATCH_H_
#define SRC_HARNESS_DISPATCH_H_

#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/serde.h"
#include "src/harness/dispatch_protocol.h"
#include "src/harness/sweep_runner.h"

namespace alert {

// Outcome of one non-blocking/timed channel read.
enum class ChannelRead : int {
  kLine = 0,     // *line holds the next record line
  kTimeout = 1,  // nothing available within the timeout; channel still open
  kClosed = 2,   // the worker is gone and every buffered line has been delivered
};

// One live worker connection, as seen by the dispatcher.  Implementations must
// deliver lines in order and must keep already-received lines readable after the
// worker dies (kClosed only once the buffer is drained) — the dispatcher merges a
// dead worker's last results before requeueing the remainder.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;
  // Queues one or more whole protocol lines to the worker, each ending in '\n' — a
  // whole lease goes out in one call.  An error means the worker is gone; the
  // dispatcher then requeues the lease elsewhere.
  virtual serde::Status Send(std::string_view lines) = 0;
  // Next line from the worker.  timeout_ms 0 polls, < 0 blocks.
  virtual ChannelRead Recv(int timeout_ms, std::string* line) = 0;
  // An fd that poll() reports readable when Recv may return a line or the channel
  // has closed: after Recv(0) times out, the dispatcher sleeps on these fds instead
  // of a clock.  -1 means the channel cannot be waited on; the dispatcher then only
  // wakes on its own bounded timeout.
  virtual int wait_fd() const = 0;
  // Tears the worker down (kill the process / close the queues and join the thread).
  // Idempotent; called by the dispatcher on failure and at the end of every run.
  virtual void Close() = 0;
};

// Worker factory.  `Launch(i)` starts worker i (a monotonically increasing launch
// index — replacement workers get fresh indices) and returns its channel; a Status
// error (binary missing, ssh refused) makes the dispatcher count a failed launch
// against `max_worker_launches` and try the next index.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual serde::Status Launch(int worker_index,
                               std::unique_ptr<WorkerChannel>* out) = 0;
};

// --- worker side -------------------------------------------------------------------

// Worker-side view of the byte stream: blocking line reads, a non-blocking poll for
// the revoke drain, line writes.
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;
  // Blocks for the next line; false once the dispatcher is gone (EOF) — the worker
  // then exits cleanly.
  virtual bool ReadLine(std::string* line) = 0;
  // Non-blocking: true and fills *line if one is already available, false otherwise
  // (including EOF — the blocking ReadLine is where EOF is acted on).  Called from
  // runner threads during lease execution, serialized by the worker's drain mutex;
  // implementations need not add their own locking against ReadLine, which is never
  // concurrent with it.
  virtual bool TryReadLine(std::string* line) = 0;
  virtual serde::Status WriteLine(std::string_view line) = 0;
};

struct DispatchWorkerOptions {
  int threads = 0;  // RunSweepUnits width on this worker; 0 = hardware concurrency
  // While executing, a background thread emits a heartbeat line at this interval so
  // the dispatcher's straggler deadline measures *liveness*, not time-between-results
  // — a healthy worker grinding through one long replay row must not look silent.
  // 0 disables (then only results and the initial heartbeat prove liveness; pair
  // with a straggler deadline longer than the longest single row, or rely on the
  // dispatcher's cost-scaled deadline).
  int heartbeat_interval_ms = 5000;
  // Failure injection (tests and the CI e2e): after finishing N units, die
  // (fail_after_results) or go silent while still executing (hang_after_results,
  // where 0 means the worker accepts its first lease and then never reports — the
  // pure deadline-retry case); -1 disables.  duplicate_results sends every result
  // line twice, exercising the dispatcher's first-wins dedup.  delay_per_result_ms
  // sleeps that long per finished unit and adds the sleep to the reported timing —
  // a deterministic "slow machine" for cost-model and steal tests.
  int fail_after_results = -1;
  int hang_after_results = -1;
  bool duplicate_results = false;
  int delay_per_result_ms = 0;
};

// Runs the worker side of the protocol over `link` until EOF or `shutdown`: say
// hello, request a lease, and for each grant rebuild the plan from the inlined spec,
// verify its fingerprint, adopt the inlined profile snapshots (the worker never
// re-profiles), execute the leased units — polling for `lease-revoke` between units —
// and stream results (with observed per-unit timings) back.  Returns a process exit
// code: 0 clean, 3 injected death, 4 protocol/spec error (after sending
// `worker-error`).  The plan is cached across leases keyed by fingerprint, so only
// the first grant pays the spec parse.
int RunDispatchWorker(WorkerLink& link, const DispatchWorkerOptions& options = {});

// --- transports --------------------------------------------------------------------

// Workers as std::threads in this process, channels as in-memory line queues.
class InProcessTransport : public Transport {
 public:
  struct Options {
    int threads = 1;  // per worker; keep 1 unless the test wants nested parallelism
    int heartbeat_interval_ms = 5000;   // per-worker heartbeat (0 disables)
    std::map<int, int> fail_after;      // launch index -> die after N results
    std::map<int, int> hang_after;      // launch index -> go quiet after N results
    std::set<int> duplicate_results;    // launch indices that double-send every result
    std::map<int, int> delay_per_result;  // launch index -> ms of sleep per unit
    // Launch indices [0, N) each hold their first lease-grant line until all N have
    // received one: no gated worker can finish a unit, and so pull more work,
    // before every gated worker holds a lease.  That makes "every worker gets a
    // lease" a property of the schedule rather than of thread timing.  Each gated
    // launch must be granted a lease, or its worker waits forever.
    int first_lease_barrier = 0;
    // Lines the dispatcher sends become readable to the worker this long after the
    // send — a stand-in for transport latency (bench_dispatch uses it to give the
    // request/grant round trip a real cost).  0 delivers at once.
    int delivery_delay_ms = 0;
  };
  InProcessTransport();  // default options
  explicit InProcessTransport(Options options);
  serde::Status Launch(int worker_index, std::unique_ptr<WorkerChannel>* out) override;

 private:
  void AwaitFirstLeaseBarrier();

  Options options_;
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrivals_ = 0;
};

// Workers as child processes; `argv_for_worker` builds each launch's argument
// vector (typically `{"./sweep_shard", "--worker", ...}` plus injection flags, or
// `{"/bin/sh", "-c", command}` for a command that must speak the worker protocol on
// its stdin/stdout, e.g. an ssh invocation ending in `sweep_shard --worker`).
class SubprocessTransport : public Transport {
 public:
  explicit SubprocessTransport(
      std::function<std::vector<std::string>(int worker_index)> argv_for_worker);
  serde::Status Launch(int worker_index, std::unique_ptr<WorkerChannel>* out) override;

 private:
  std::function<std::vector<std::string>(int)> argv_for_worker_;
};

// Workers over localhost TCP: Launch listens on 127.0.0.1 (one listener, ephemeral
// port, opened lazily), runs `command_for_worker(worker_index, port)` under
// /bin/sh -c, and waits up to `accept_timeout_ms` for that worker to connect back.
// The child is kept for kill/reap alongside the socket.  Launches are serial (the
// dispatcher's event loop), so connections pair with the launch that is waiting.
class SocketTransport : public Transport {
 public:
  struct Options {
    // Renders the worker command; must make the worker dial 127.0.0.1:port, e.g.
    // "./sweep_shard --worker --connect=127.0.0.1:" + std::to_string(port).
    std::function<std::string(int worker_index, int port)> command_for_worker;
    int accept_timeout_ms = 20000;
  };
  explicit SocketTransport(Options options);
  ~SocketTransport() override;
  serde::Status Launch(int worker_index, std::unique_ptr<WorkerChannel>* out) override;

 private:
  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
};

// --- dispatcher --------------------------------------------------------------------

// Live ms-per-cost-point model: per-worker EWMAs over (observed unit wall time /
// SweepUnitCost(unit)), plus a fleet-wide EWMA that serves as the prior for workers
// with no observations yet.  One fleet rate was enough for lease sizing on a uniform
// pool, but it washes out a heterogeneous fleet's per-machine truth: a 5x-slower
// machine fed the fleet average gets leases sized for the average machine (too big —
// it strands the tail) and a straggler deadline scaled for the average machine (too
// tight — it gets revoked while healthy).  Its consumers — lease sizing ("how many
// pending units fit in target_lease_ms *on this worker*?"), the cost-scaled
// straggler deadline, and steal-victim selection (remaining work valued at the
// victim's own rate) — all key observations by the worker's launch index.  Exposed
// for unit tests.
class LeaseCostModel {
 public:
  // `initial_rate_ms` seeds the fleet prior (ms per cost point); 0 = start unknown.
  explicit LeaseCostModel(double initial_rate_ms = 0.0);

  // Feeds one observation from `worker` (a launch index); updates that worker's EWMA
  // and the fleet prior.  Ignored unless cost and ms are positive and finite.
  void Observe(int worker, double cost, double ms);

  // Predicted wall time of a unit with this cost on `worker`: the worker's own rate
  // when it has observations, else the fleet prior, else 0.0 (unknown).
  double PredictMs(int worker, double cost) const;

  // The rate PredictMs would use for `worker` (worker EWMA, else fleet prior, else 0).
  double RateFor(int worker) const;

  bool seeded() const { return fleet_rate_ms_ > 0.0; }
  bool worker_seeded(int worker) const;
  double rate_ms() const { return fleet_rate_ms_; }
  // Per-worker observed rates only (no prior fallback), keyed by launch index.
  const std::map<int, double>& worker_rates() const { return worker_rate_ms_; }

 private:
  double fleet_rate_ms_ = 0.0;
  // The explicit constructor seed, kept apart from the learned fleet rate: a
  // worker's first own observation blends against it instead of being adopted
  // whole, so an operator-stated prior is not erased by one unrepresentative unit.
  double seed_rate_ms_ = 0.0;
  std::map<int, double> worker_rate_ms_;
};

// The straggler deadline for a lease whose largest unmerged unit is predicted to
// take `predicted_max_unit_ms`: the flat deadline, stretched to `cost_factor` times
// the prediction when that is longer.  With an unknown cost model (prediction 0)
// this is exactly the flat deadline.  Pure; exposed for unit tests — this is the
// fix for the flat deadline misfiring on long units with heartbeats disabled.
int EffectiveLeaseDeadlineMs(int flat_deadline_ms, double cost_factor,
                             double predicted_max_unit_ms);

// Pull-lease sizing predicate: keep taking units while the lease is empty, under the
// cold-start cap (rate unknown), or — rate known — predicted to finish inside the
// target.  The max-units clamp binds in every branch: a plan whose units have
// SweepUnitCost == 0 predicts 0 ms forever and must not swallow an unbounded plan
// prefix.  Pure; exposed for unit tests.
bool PullLeaseWantsMore(int units_taken, int max_units, int cold_cap, bool rate_known,
                        double predicted_ms, int target_ms);

struct DispatchOptions {
  int num_workers = 2;

  // Lease sizing: take pending units until their predicted time reaches
  // target_lease_ms, capped at max_lease_units; while the cost model is unseeded,
  // leases stay small (warm-up).  target_lease_ms trades scheduling overhead
  // against tail latency — smaller leases steal/rebalance faster but chat more.
  // Row close: once the worker's rate is known, a lease of fresh units that reaches
  // either limit inside a replay row (ReplayRowOf) also takes the rest of that row,
  // so the row's static searches share one replay on one worker.  Such a lease can
  // exceed max_lease_units by up to one row less one unit.  Cold (warm-up) leases and
  // leases carrying requeued units stop at the limit.
  int target_lease_ms = 1000;
  int max_lease_units = 64;
  // Seeds the cost model (ms per SweepUnitCost point) so the first leases and
  // deadlines are already scaled; 0 = learn from scratch.  Tests use this to make
  // deadline behavior deterministic.
  double initial_cost_rate_ms = 0.0;
  // Steal leases for idle workers when nothing is pending.
  bool enable_steal = true;
  // Lease-grant pipelining: while a worker drains lease N, the
  // dispatcher sends lease N+1 (one outstanding prefetch per worker), so the worker
  // promotes the prefetched lease the instant N finishes instead of paying a
  // request/grant round trip — on an ssh-style transport that round trip is pure
  // idle time.  Revocation-aware: a steal or straggler revoke cancels the
  // undelivered prefetch first (those units are pure inventory — nothing is running
  // them), then the active lease.
  bool pipeline_leases = false;

  // Checkpoint/resume of the merge accumulator.  When `checkpoint_path` is set, the
  // dispatcher writes the checkpoint journal there (SweepCheckpointJournal): the
  // header and every preseeded result once, atomically, then one append of the
  // pending records after every `checkpoint_every` newly merged results, plus one
  // for the tail on completion.  Nothing is ever rewritten, so an append costs the
  // new records only, and a dispatcher crash costs at most `checkpoint_every` units
  // of re-execution.  Resume = load the checkpoint into `preseeded_results` (the
  // tool does this; fingerprint-mismatched or corrupt files are loud errors, a torn
  // last record is dropped) — the preseed path already merges them first and never
  // re-leases their ids.
  std::string checkpoint_path;
  int checkpoint_every = 1;
  // Test/e2e hook: after this many *newly recorded* fresh-worker results the
  // dispatch returns an error immediately — the pending records are never appended,
  // the accumulator is never drained — simulating a dispatcher killed mid-sweep.
  // -1 disables.
  int crash_after_results = -1;

  // A worker with outstanding units that produces no line for its *effective*
  // deadline is declared a straggler: its lease is revoked and the unfinished units
  // are requeued.  The effective deadline is EffectiveLeaseDeadlineMs(this,
  // straggler_cost_factor, predicted max unmerged unit ms) — i.e. at least this
  // flat value, stretched for leases whose units are legitimately long.  Generous
  // by default: a false positive only duplicates work, but on a shared CI box a
  // tight deadline would requeue everything.
  int straggler_deadline_ms = 60000;
  double straggler_cost_factor = 4.0;

  // Launch budget: initial workers + replacements (0 = num_workers + 8).  Exhausting
  // it with units still unfinished fails the dispatch with a diagnostic.
  int max_worker_launches = 0;
  // Wall-clock bound on the whole dispatch; 0 = unbounded.
  int global_deadline_ms = 600000;

  // Results already known before any worker launches — e.g. cache hits from a
  // SweepResultCache (sweep_cache.h).  They enter the merge accumulator as
  // first-class deliveries ahead of the first lease, and their unit ids are never
  // leased to any worker; a fully preseeded plan finalizes without launching one.
  // Ids must belong to the plan, and two preseeds for one id must agree —
  // otherwise the dispatch fails before any work starts.
  std::vector<SweepUnitResult> preseeded_results;

  // Observability hooks, all invoked on the dispatcher thread, in event order.
  // on_assign fires before each lease is sent; its ids never include a unit that
  // already has a merged result (the no-rerun invariant — also ALERT_CHECKed).
  std::function<void(int worker, int seq, std::span<const int> unit_ids)> on_assign;
  // on_result fires per received result line; newly_recorded=false marks a
  // first-wins-discarded duplicate.
  std::function<void(int worker, const SweepUnitResult& result, bool newly_recorded)>
      on_result;
  std::function<void(const std::string& event)> on_event;  // human-readable progress
};

struct DispatchStats {
  int workers_launched = 0;   // successful Launch calls
  int failed_launches = 0;    // Launch calls that returned an error
  int worker_failures = 0;    // channels that closed before finishing a lease
  int stragglers = 0;         // deadline expiries that triggered a revoke + requeue
  int leases_granted = 0;     // lease-grant messages sent (prefetches included)
  int leases_pipelined = 0;   // of those, prefetches sent while a lease was draining
  int retry_assignments = 0;  // leases containing at least one requeued unit
  int lease_revocations = 0;  // lease-revoke messages sent (steals + stragglers)
  int units_stolen = 0;       // unmerged units requeued by steals specifically
  int results_received = 0;   // result lines parsed (duplicates included)
  int duplicate_results = 0;  // redeliveries discarded by first-wins
  int preseeded = 0;          // results accepted from preseeded_results
  int checkpoints_written = 0;  // journal writes: the initial file plus each append
  double elapsed_ms = 0.0;    // wall time of the DispatchSweep call
  // Final fleet cost-model rate.  A never-seeded model reports NaN — not 0.0, which
  // is indistinguishable from a genuinely ~0 observed rate; check cost_model_seeded
  // before formatting (serde::FormatDouble aborts on NaN by design).
  double cost_rate_ms = std::numeric_limits<double>::quiet_NaN();
  bool cost_model_seeded = false;
  // Per-worker observed rates (launch index -> ms per cost point), workers with at
  // least one observation only.
  std::map<int, double> worker_cost_rates;
  // Total grant-wait idle time reported by workers (the gap between a worker's
  // lease-request and the grant reaching it, summed fleet-wide) — the metric lease
  // pipelining exists to shrink.
  double worker_idle_ms = 0.0;
};

// Captures the warm-start payload for a plan: for every (task, platform, seed) its
// units touch, profile once locally and snapshot all three candidate-set stacks.
// This is the only profiling in a dispatched sweep; workers adopt these snapshots.
ProfileSnapshotStore CapturePlanSnapshots(const SweepPlan& plan);

// Runs the whole plan through `transport` and finalizes into `*out` (one CellResult
// per (cell, seed), plan order — identical to RunSweep).  Returns an error (never
// aborts on worker misbehavior) when the launch budget or a deadline is exhausted
// before every unit has a result, or when two workers return conflicting results for
// one unit (a determinism violation worth failing loudly on).  `*stats`, when
// non-null, is filled even on failure.
serde::Status DispatchSweep(const SweepPlan& plan, Transport& transport,
                            const DispatchOptions& options,
                            std::vector<CellResult>* out,
                            DispatchStats* stats = nullptr);

}  // namespace alert

#endif  // SRC_HARNESS_DISPATCH_H_

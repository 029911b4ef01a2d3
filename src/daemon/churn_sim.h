// Deterministic tenant-churn simulation for alertd: one seeded script, two ways to
// execute it, one byte-comparable transcript.
//
// A ChurnScript is a pure function of its options (seeded Rng): a tenant universe
// (heterogeneous tasks / candidate sets / goals, the multi-job harness mix) plus a
// sequence of events — arrivals, departures, reconnects-with-belief-carryover, goal
// flips, budget changes, and barrier rounds.
//
// RunChurnScript interprets the script against a backend:
//   * ChurnDriverBackend  — the LOAD GENERATOR: speaks the alertd wire grammar over
//     localhost TCP, one connection per live tenant (reconnect events really tear
//     the connection down and dial again), and records every reply line verbatim;
//   * ChurnReplayBackend  — the OFFLINE ORACLE: the same churn applied directly to a
//     MultiJobCoordinator (AddJob / RemoveJob in place for membership, SetJobGoals /
//     set_total_power_budget for reconfiguration — the same moves the daemon
//     makes), formatting the lines the daemon WOULD send via the shared alertd.h
//     formatters.
//
// The interpreter owns everything both executions must agree on: membership
// bookkeeping (including admission verdicts via the shared AdmissionAllows
// predicate), per-tenant tick counts, and — crucially — the client-side measurement
// loop: decisions come back from the backend, are executed against this side's
// deterministic Stack + EnvironmentTrace (profile_noise_sigma = 0, fixed seeds, so
// both interpreters hold bit-identical simulators), and the resulting Measurement
// rides the next round-tick.  Identical decisions therefore imply identical
// measurements, and by induction the two transcripts must match byte for byte —
// which is exactly what tests/daemon/alertd_equivalence_test.cc asserts.
#ifndef SRC_DAEMON_CHURN_SIM_H_
#define SRC_DAEMON_CHURN_SIM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/net.h"
#include "src/common/rng.h"
#include "src/daemon/alertd.h"
#include "src/workload/trace.h"

namespace alert::daemon {

struct ChurnScriptOptions {
  uint64_t seed = 1;
  int max_tenants = 8;  // tenant universe size (K)
  int num_events = 64;  // script length; non-churn events are barrier rounds
  PlatformId platform = PlatformId::kCpu1;
  Watts initial_budget = 200.0;
  // Probability an event is churn (membership/goals/budget) rather than a round;
  // the churn mass splits below.  Kept away from the extremes so long scripts mix
  // warm steady-state rounds with bursts of membership change.
  double churn_prob = 0.40;
  double arrive_weight = 0.35;
  double depart_weight = 0.15;
  double reconnect_weight = 0.20;
  double goal_flip_weight = 0.20;
  double limit_weight = 0.10;
};

struct ChurnTenant {
  TenantConfig config;  // name + stack key + initial goals
  Goals alt_goals;      // the goal-flip target (flips toggle between the two)
  uint64_t trace_seed = 0;
};

struct ChurnEvent {
  enum class Kind : int {
    kArrive = 0,
    kDepart = 1,
    kReconnect = 2,  // snapshot -> bye -> hello -> restore, beliefs carried over
    kGoalFlip = 3,
    kLimitSet = 4,
    kRound = 5,  // every live tenant ticks; the barrier fires once
  };
  Kind kind = Kind::kRound;
  int tenant = -1;     // universe index; -1 for kLimitSet/kRound
  Watts budget = 0.0;  // kLimitSet payload
};

struct ChurnScript {
  ChurnScriptOptions options;
  std::vector<ChurnTenant> tenants;
  std::vector<ChurnEvent> events;
  int num_rounds = 0;  // kRound events in `events` (sizes the traces)
};

// Deterministic in `options`.  The generator tracks membership optimistically (it
// cannot know admission verdicts — those depend on profiled power floors), so the
// interpreter re-validates every event against actual state and skips the ones that
// no longer apply; both backends see the identical post-skip stream.
ChurnScript MakeChurnScript(const ChurnScriptOptions& options);

// One tenant's contribution to a barrier round, fully prepared by the interpreter:
// the request, and the measurement for its previous decision (absent on a tenant's
// first tick after admission).
struct TickInfo {
  int tenant = -1;  // universe index
  std::string name;
  InferenceRequest request;
  bool has_measurement = false;
  Measurement measurement;
};

// What a backend executes.  Calls arrive in canonical script order, already
// validated: Hello only for absent tenants, Bye/GoalSet/Snapshot/Restore only for
// present ones, Round only with a non-empty member list (in admission order).
// Every reply line the daemon would produce is appended to `transcript`.
class ChurnBackend {
 public:
  virtual ~ChurnBackend() = default;

  virtual void Hello(const ChurnTenant& tenant, const Goals& goals,
                     std::vector<std::string>* transcript, bool* admitted) = 0;
  virtual void Bye(const ChurnTenant& tenant,
                   std::vector<std::string>* transcript) = 0;
  virtual void GoalSet(const ChurnTenant& tenant, const Goals& goals,
                       std::vector<std::string>* transcript) = 0;
  virtual void LimitSet(Watts budget, std::vector<std::string>* transcript) = 0;
  // Reconnect prologue: snapshot the belief (appended as the `belief` line) and
  // stash it; the matching Restore happens after the re-Hello is admitted.
  virtual void SnapshotForReconnect(const ChurnTenant& tenant,
                                    std::vector<std::string>* transcript) = 0;
  virtual void Restore(const ChurnTenant& tenant,
                       std::vector<std::string>* transcript) = 0;
  // One barrier round: appends the per-tenant tick acks (member order), then the
  // per-tenant decision lines (member order).
  virtual void Round(const std::vector<TickInfo>& ticks,
                     std::vector<std::string>* transcript) = 0;
  // True once the backend hit a transport failure and gave up; the interpreter
  // stops early (the truncated transcript makes the equivalence diff visible).
  virtual bool failed() const { return false; }
};

// Interprets `script` against `backend` and returns the transcript.  Owns the
// client-side measurement loop (Stacks + traces from the script's platform/seeds).
std::vector<std::string> RunChurnScript(const ChurnScript& script,
                                        ChurnBackend& backend);

// --- the two backends -------------------------------------------------------------

class ChurnDriverBackend final : public ChurnBackend {
 public:
  // Drives the daemon at host:port.  `read_timeout_ms` bounds every reply wait.
  ChurnDriverBackend(std::string host, int port, int read_timeout_ms = 10000);

  void Hello(const ChurnTenant& tenant, const Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override;
  void Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) override;
  void GoalSet(const ChurnTenant& tenant, const Goals& goals,
               std::vector<std::string>* transcript) override;
  void LimitSet(Watts budget, std::vector<std::string>* transcript) override;
  void SnapshotForReconnect(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override;
  void Restore(const ChurnTenant& tenant,
               std::vector<std::string>* transcript) override;
  void Round(const std::vector<TickInfo>& ticks,
             std::vector<std::string>* transcript) override;
  bool failed() const override { return failed_; }

 private:
  struct Conn {
    int tenant = -1;
    std::unique_ptr<net::LineChannel> channel;
  };

  net::LineChannel* ChannelFor(int tenant);
  net::LineChannel* ControlChannel();  // tenant-less session for limit-set
  std::unique_ptr<net::LineChannel> Connect();
  // Writes, then reads one reply onto the transcript.  On transport failure
  // appends a `driver-error` marker, sets failed_, and returns false.
  bool Exchange(net::LineChannel* channel, const std::string& line,
                std::vector<std::string>* transcript);

  std::string host_;
  int port_;
  int read_timeout_ms_;
  bool failed_ = false;
  std::vector<Conn> conns_;
  std::unique_ptr<net::LineChannel> control_;
  std::vector<std::string> saved_belief_;  // indexed by tenant universe id
};

class ChurnReplayBackend final : public ChurnBackend {
 public:
  explicit ChurnReplayBackend(const ChurnScript& script);

  void Hello(const ChurnTenant& tenant, const Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override;
  void Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) override;
  void GoalSet(const ChurnTenant& tenant, const Goals& goals,
               std::vector<std::string>* transcript) override;
  void LimitSet(Watts budget, std::vector<std::string>* transcript) override;
  void SnapshotForReconnect(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override;
  void Restore(const ChurnTenant& tenant,
               std::vector<std::string>* transcript) override;
  void Round(const std::vector<TickInfo>& ticks,
             std::vector<std::string>* transcript) override;

 private:
  // One admitted tenant, in admission order (== coordinator job order).
  struct Slot {
    int tenant = -1;
    const Stack* stack = nullptr;
    bool has_decision = false;
    SchedulingDecision last_decision;
  };

  int FindSlot(int tenant) const;  // -1 when absent
  Watts FloorSum() const;

  StackCache stacks_;
  std::vector<Slot> slots_;
  MultiJobCoordinator coordinator_;  // job i serves slots_[i]
  std::vector<BeliefRecord> saved_belief_;  // indexed by tenant universe id
  std::vector<bool> has_saved_belief_;
  int round_ = 0;
};

}  // namespace alert::daemon

#endif  // SRC_DAEMON_CHURN_SIM_H_

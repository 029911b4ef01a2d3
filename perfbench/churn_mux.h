// A churn-script backend that carries K tenants over a few line connections.
//
// The stock ChurnDriverBackend (src/daemon/churn_sim.h) opens one connection per
// tenant, which breaks the benchmark's connection limit (<= nproc) at K=64.
// MuxChurnBackend pins tenant t to connection t % C, so a session owns several
// tenants; it timestamps every exchange and, after a barrier round, sorts the
// decision lines that arrive on the C connections back into member order by their
// `tenant=` field.  The transcript it builds must equal ChurnReplayBackend's on the
// same script, byte for byte.
//
// The connections are a LineLink: real localhost TCP to an alertd child
// (TcpLink), or an in-process AlertdCore fed through HandleLine (CoreLink), which
// is how the traced run separates the daemon's own time from time on the wire.
#ifndef PERFBENCH_CHURN_MUX_H_
#define PERFBENCH_CHURN_MUX_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/common/net.h"
#include "src/daemon/alertd.h"
#include "src/daemon/churn_sim.h"

namespace perfbench {

// C full-duplex line streams, addressed by index.  `request` tags the trace span of
// the exchange (the round number a tick belongs to).
class LineLink {
 public:
  virtual ~LineLink() = default;
  virtual bool Send(int conn, const std::string& line, int64_t request) = 0;
  virtual bool Recv(int conn, std::string* line) = 0;
};

class TcpLink final : public LineLink {
 public:
  TcpLink(int port, int num_conns, int timeout_ms);
  bool Send(int conn, const std::string& line, int64_t request) override;
  bool Recv(int conn, std::string* line) override;
  bool connected() const { return connected_; }

 private:
  std::vector<std::unique_ptr<alert::net::LineChannel>> conns_;
  int timeout_ms_;
  bool connected_ = true;
};

// Feeds lines straight into an AlertdCore (session = conn + 1) and queues its
// replies per connection.  When tracing, each HandleLine call is one span named by
// what it did: daemon.tick, daemon.fire (the tick that completed the barrier),
// daemon.membership (hello/bye), daemon.belief (snapshot/restore),
// daemon.reconfig (goal-set/limit-set), daemon.other.
class CoreLink final : public LineLink {
 public:
  CoreLink(alert::daemon::AlertdCore& core, int num_conns, Tracer& tracer);
  bool Send(int conn, const std::string& line, int64_t request) override;
  bool Recv(int conn, std::string* line) override;

 private:
  alert::daemon::AlertdCore& core_;
  Tracer& tracer_;
  std::vector<std::deque<std::string>> inbox_;
  std::vector<alert::daemon::Outgoing> out_;
};

// Reorders `lines` (one per member, any order) into the order of `members` by each
// line's `tenant=` field.  False on a line without a parseable tenant, a tenant that
// is not a member, or a member with no line or more than one.
bool OrderByTenant(const std::vector<std::string>& members,
                   const std::vector<std::string>& lines, std::vector<std::string>* out);

// Driver-side measurements of one drive.
struct DriveLog {
  std::vector<double> round_ms;       // first tick written -> last decision read
  std::vector<double> round_bytes;    // wire bytes both ways, newline included
  std::vector<double> round_jobs;     // members in the round
  std::vector<double> tick_exchange_us;  // non-barrier tick: written -> ack read
  std::vector<double> churn_op_ms;    // hello/bye/reconnect/goal-set/limit-set
  std::vector<double> inference_s;    // simulated latency carried by each tick
  int64_t requests = 0;               // lines written
  int64_t error_replies = 0;          // typed errors other than admission
  int64_t admission_rejects = 0;
  int64_t hellos = 0;
  int64_t churn_ops = 0;
  int64_t calls = 0;                  // backend calls (the replay's stop point)
  Clock::time_point first_sent;       // the drive's wall clock starts here
  Clock::time_point last_read;        // ... and ends here
};

class MuxChurnBackend final : public alert::daemon::ChurnBackend {
 public:
  // With seconds > 0, stops taking events that long after the first line is sent
  // (checked only between events, so a reconnect or round is never cut in half).
  MuxChurnBackend(LineLink& link, int num_conns, double seconds, Tracer* tracer);

  void Hello(const alert::daemon::ChurnTenant& tenant, const alert::Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override;
  void Bye(const alert::daemon::ChurnTenant& tenant,
           std::vector<std::string>* transcript) override;
  void GoalSet(const alert::daemon::ChurnTenant& tenant, const alert::Goals& goals,
               std::vector<std::string>* transcript) override;
  void LimitSet(alert::Watts budget, std::vector<std::string>* transcript) override;
  void SnapshotForReconnect(const alert::daemon::ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override;
  void Restore(const alert::daemon::ChurnTenant& tenant,
               std::vector<std::string>* transcript) override;
  void Round(const std::vector<alert::daemon::TickInfo>& ticks,
             std::vector<std::string>* transcript) override;
  bool failed() const override;

  bool transport_failed() const { return transport_failed_; }
  const DriveLog& log() const { return log_; }

 private:
  int ConnOf(const alert::daemon::ChurnTenant& tenant) const;
  bool Exchange(int conn, const std::string& line, std::vector<std::string>* transcript);
  bool Read(int conn, std::string* line);
  void Error(const std::string& reason, std::vector<std::string>* transcript);
  void Classify(const std::string& reply);
  void EndOp(Clock::time_point start);

  LineLink& link_;
  int num_conns_;
  double seconds_;
  std::optional<Clock::time_point> deadline_;  // set by the first line sent
  Tracer* tracer_;
  bool transport_failed_ = false;
  bool in_reconnect_ = false;
  Clock::time_point reconnect_start_;
  int64_t round_ = 0;
  int64_t bytes_ = 0;
  std::vector<std::string> saved_belief_;  // by tenant universe index
  DriveLog log_;
};

// Forwards to `inner` and reports failed() once `stop_after_calls` calls went
// through, so a replay stops exactly where a deadline-bounded drive stopped.  With
// a tracer, Round is one span (core.round) and Hello/Bye one each (core.rebuild).
class PrefixBackend final : public alert::daemon::ChurnBackend {
 public:
  PrefixBackend(alert::daemon::ChurnBackend& inner, int64_t stop_after_calls,
                Tracer* tracer)
      : inner_(inner), stop_after_(stop_after_calls), tracer_(tracer) {}

  void Hello(const alert::daemon::ChurnTenant& tenant, const alert::Goals& goals,
             std::vector<std::string>* transcript, bool* admitted) override;
  void Bye(const alert::daemon::ChurnTenant& tenant,
           std::vector<std::string>* transcript) override;
  void GoalSet(const alert::daemon::ChurnTenant& tenant, const alert::Goals& goals,
               std::vector<std::string>* transcript) override;
  void LimitSet(alert::Watts budget, std::vector<std::string>* transcript) override;
  void SnapshotForReconnect(const alert::daemon::ChurnTenant& tenant,
                            std::vector<std::string>* transcript) override;
  void Restore(const alert::daemon::ChurnTenant& tenant,
               std::vector<std::string>* transcript) override;
  void Round(const std::vector<alert::daemon::TickInfo>& ticks,
             std::vector<std::string>* transcript) override;
  bool failed() const override { return inner_.failed() || calls_ >= stop_after_; }

 private:
  alert::daemon::ChurnBackend& inner_;
  int64_t stop_after_;
  Tracer* tracer_;
  int64_t calls_ = 0;
  int64_t round_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHURN_MUX_H_

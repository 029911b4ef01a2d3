#include "perfbench/churn_mux.h"

#include <string_view>
#include <utility>

#include "src/common/serde.h"

namespace perfbench {

using alert::daemon::ChurnTenant;
using alert::daemon::TickInfo;

namespace {

// Universe names are "t<i>" (MakeChurnScript).
int TenantIndex(const ChurnTenant& tenant) {
  return std::stoi(tenant.config.name.substr(1));
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

}  // namespace

// --- links -------------------------------------------------------------------------

TcpLink::TcpLink(int port, int num_conns, int timeout_ms) : timeout_ms_(timeout_ms) {
  alert::net::EnsureSigpipeIgnored();
  for (int i = 0; i < num_conns; ++i) {
    int fd = -1;
    if (!alert::net::ConnectTcp("127.0.0.1", port, &fd)) {
      connected_ = false;
      return;
    }
    conns_.push_back(std::make_unique<alert::net::LineChannel>(fd, fd, /*owns_fds=*/true));
  }
}

bool TcpLink::Send(int conn, const std::string& line, int64_t /*request*/) {
  return connected_ && static_cast<bool>(conns_[static_cast<size_t>(conn)]->WriteLine(line));
}

bool TcpLink::Recv(int conn, std::string* line) {
  return connected_ && conns_[static_cast<size_t>(conn)]->ReadLine(timeout_ms_, line) ==
                           alert::net::ReadStatus::kLine;
}

CoreLink::CoreLink(alert::daemon::AlertdCore& core, int num_conns, Tracer& tracer)
    : core_(core), tracer_(tracer), inbox_(static_cast<size_t>(num_conns)) {}

bool CoreLink::Send(int conn, const std::string& line, int64_t request) {
  const std::string_view verb = std::string_view(line).substr(0, line.find(' '));
  out_.clear();
  const Clock::time_point start = Clock::now();
  core_.HandleLine(conn + 1, line, &out_);
  const Clock::time_point end = Clock::now();

  const char* name = "daemon.other";
  if (verb == "round-tick") {
    name = "daemon.tick";
    for (const alert::daemon::Outgoing& o : out_) {
      if (StartsWith(o.line, "decision ")) {
        name = "daemon.fire";
        break;
      }
    }
  } else if (verb == "tenant-hello" || verb == "tenant-bye") {
    name = "daemon.membership";
  } else if (verb == "belief-snapshot" || verb == "belief-restore") {
    name = "daemon.belief";
  } else if (verb == "goal-set" || verb == "limit-set") {
    name = "daemon.reconfig";
  }
  tracer_.Add(name, start, end, -1, request);
  for (alert::daemon::Outgoing& o : out_) {
    inbox_[static_cast<size_t>(o.session - 1)].push_back(std::move(o.line));
  }
  return true;
}

bool CoreLink::Recv(int conn, std::string* line) {
  std::deque<std::string>& inbox = inbox_[static_cast<size_t>(conn)];
  if (inbox.empty()) {
    return false;
  }
  *line = std::move(inbox.front());
  inbox.pop_front();
  return true;
}

// --- demultiplexing ----------------------------------------------------------------

bool OrderByTenant(const std::vector<std::string>& members,
                   const std::vector<std::string>& lines, std::vector<std::string>* out) {
  if (lines.size() != members.size()) {
    return false;
  }
  std::vector<std::string> ordered(members.size());
  std::vector<bool> filled(members.size(), false);
  for (const std::string& line : lines) {
    alert::serde::RecordReader reader;
    std::string tenant;
    if (!alert::serde::RecordReader::Parse(line, &reader) || !reader.Get("tenant", &tenant)) {
      return false;
    }
    size_t slot = members.size();
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == tenant) {
        slot = i;
        break;
      }
    }
    if (slot == members.size() || filled[slot]) {
      return false;
    }
    ordered[slot] = line;
    filled[slot] = true;
  }
  *out = std::move(ordered);
  return true;
}

// --- the multiplexing driver -------------------------------------------------------

MuxChurnBackend::MuxChurnBackend(LineLink& link, int num_conns, double seconds,
                                 Tracer* tracer)
    : link_(link), num_conns_(num_conns), seconds_(seconds), tracer_(tracer) {}

bool MuxChurnBackend::failed() const {
  return transport_failed_ || (deadline_.has_value() && Clock::now() >= *deadline_);
}

int MuxChurnBackend::ConnOf(const ChurnTenant& tenant) const {
  return TenantIndex(tenant) % num_conns_;
}

void MuxChurnBackend::Error(const std::string& reason,
                            std::vector<std::string>* transcript) {
  transcript->push_back("driver-error reason=" + reason);
  transport_failed_ = true;
}

void MuxChurnBackend::Classify(const std::string& reply) {
  if (!StartsWith(reply, "error ")) {
    return;
  }
  if (reply.find(" reason=admission") != std::string::npos) {
    ++log_.admission_rejects;
  } else {
    ++log_.error_replies;
  }
}

bool MuxChurnBackend::Read(int conn, std::string* line) {
  if (!link_.Recv(conn, line)) {
    return false;
  }
  bytes_ += static_cast<int64_t>(line->size()) + 1;
  log_.last_read = Clock::now();
  return true;
}

bool MuxChurnBackend::Exchange(int conn, const std::string& line,
                               std::vector<std::string>* transcript) {
  if (transport_failed_) {
    return false;
  }
  if (log_.requests++ == 0) {
    log_.first_sent = Clock::now();
    if (seconds_ > 0.0) {
      deadline_ = log_.first_sent + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds_));
    }
  }
  bytes_ += static_cast<int64_t>(line.size()) + 1;
  if (!link_.Send(conn, line, round_)) {
    Error("write-failed", transcript);
    return false;
  }
  std::string reply;
  if (!Read(conn, &reply)) {
    Error("read-failed", transcript);
    return false;
  }
  Classify(reply);
  transcript->push_back(std::move(reply));
  return true;
}

void MuxChurnBackend::EndOp(Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  log_.churn_op_ms.push_back(MsBetween(start, end));
  ++log_.churn_ops;
  if (tracer_ != nullptr) {
    tracer_->Add("net.churn_op", start, end, -1, round_);
  }
}

void MuxChurnBackend::Hello(const ChurnTenant& tenant, const alert::Goals& goals,
                            std::vector<std::string>* transcript, bool* admitted) {
  ++log_.calls;
  ++log_.hellos;
  *admitted = false;
  const Clock::time_point start = Clock::now();
  alert::serde::RecordWriter w("tenant-hello");
  w.Field("tenant", tenant.config.name);
  w.Field("task", static_cast<int>(tenant.config.task));
  w.Field("dnn_set", static_cast<int>(tenant.config.dnn_set));
  alert::daemon::AppendGoalsFields(goals, &w);
  if (!Exchange(ConnOf(tenant), w.line(), transcript)) {
    return;
  }
  *admitted = StartsWith(transcript->back(), "ok ");
  if (!in_reconnect_) {
    EndOp(start);
  } else if (!*admitted) {
    in_reconnect_ = false;  // the reconnect ends here: no restore follows
    EndOp(reconnect_start_);
  }
}

void MuxChurnBackend::Bye(const ChurnTenant& tenant,
                          std::vector<std::string>* transcript) {
  ++log_.calls;
  const Clock::time_point start = Clock::now();
  alert::serde::RecordWriter w("tenant-bye");
  w.Field("tenant", tenant.config.name);
  if (Exchange(ConnOf(tenant), w.line(), transcript) && !in_reconnect_) {
    EndOp(start);
  }
}

void MuxChurnBackend::GoalSet(const ChurnTenant& tenant, const alert::Goals& goals,
                              std::vector<std::string>* transcript) {
  ++log_.calls;
  const Clock::time_point start = Clock::now();
  alert::serde::RecordWriter w("goal-set");
  w.Field("tenant", tenant.config.name);
  alert::daemon::AppendGoalsFields(goals, &w);
  if (Exchange(ConnOf(tenant), w.line(), transcript)) {
    EndOp(start);
  }
}

void MuxChurnBackend::LimitSet(alert::Watts budget, std::vector<std::string>* transcript) {
  ++log_.calls;
  const Clock::time_point start = Clock::now();
  alert::serde::RecordWriter w("limit-set");
  w.Field("budget", budget);
  if (Exchange(0, w.line(), transcript)) {
    EndOp(start);
  }
}

void MuxChurnBackend::SnapshotForReconnect(const ChurnTenant& tenant,
                                           std::vector<std::string>* transcript) {
  ++log_.calls;
  in_reconnect_ = true;
  reconnect_start_ = Clock::now();
  alert::serde::RecordWriter w("belief-snapshot");
  w.Field("tenant", tenant.config.name);
  if (!Exchange(ConnOf(tenant), w.line(), transcript)) {
    return;
  }
  const size_t id = static_cast<size_t>(TenantIndex(tenant));
  if (id >= saved_belief_.size()) {
    saved_belief_.resize(id + 1);
  }
  saved_belief_[id] = transcript->back();
}

void MuxChurnBackend::Restore(const ChurnTenant& tenant,
                              std::vector<std::string>* transcript) {
  ++log_.calls;
  const size_t id = static_cast<size_t>(TenantIndex(tenant));
  constexpr std::string_view kBeliefTag = "belief ";
  if (id >= saved_belief_.size() || !StartsWith(saved_belief_[id], kBeliefTag)) {
    Error("no-saved-belief", transcript);
    return;
  }
  // The snapshot's own %.17g tokens go back under the restore verb: bit-exact.
  const std::string line = "belief-restore " + saved_belief_[id].substr(kBeliefTag.size());
  if (Exchange(ConnOf(tenant), line, transcript)) {
    in_reconnect_ = false;
    EndOp(reconnect_start_);
  }
}

void MuxChurnBackend::Round(const std::vector<TickInfo>& ticks,
                            std::vector<std::string>* transcript) {
  ++log_.calls;
  if (transport_failed_) {
    return;
  }
  const int round_span = tracer_ != nullptr ? tracer_->Begin("net.round", round_) : -1;
  bytes_ = 0;
  const Clock::time_point start = Clock::now();
  std::vector<int> per_conn(static_cast<size_t>(num_conns_), 0);
  std::vector<std::string> members;
  members.reserve(ticks.size());
  for (size_t i = 0; i < ticks.size(); ++i) {
    const TickInfo& info = ticks[i];
    const int conn = info.tenant % num_conns_;
    ++per_conn[static_cast<size_t>(conn)];
    members.push_back(info.name);
    alert::serde::RecordWriter w("round-tick");
    w.Field("tenant", info.name);
    w.Field("input", info.request.input_index);
    w.Field("deadline", info.request.deadline);
    w.Field("period", info.request.period);
    if (info.has_measurement) {
      const alert::Measurement& m = info.measurement;
      w.Field("m_latency", m.latency);
      w.Field("m_period", m.period);
      w.Field("m_energy", m.energy);
      w.Field("m_ipower", m.inference_power);
      w.Field("m_idle", m.idle_power);
      w.Field("m_xi_t", m.xi_anchor_time);
      w.Field("m_xi_f", m.xi_anchor_fraction);
      w.Field("m_xi_c", m.xi_censored);
      log_.inference_s.push_back(m.latency);
    }
    const Clock::time_point sent = Clock::now();
    if (!Exchange(conn, w.line(), transcript)) {
      break;
    }
    if (!StartsWith(transcript->back(), "ok ")) {
      Error("tick-refused", transcript);
      break;
    }
    const bool barrier = i + 1 == ticks.size();
    if (!barrier) {
      const Clock::time_point acked = Clock::now();
      log_.tick_exchange_us.push_back(UsBetween(sent, acked));
      if (tracer_ != nullptr) {
        tracer_->Add("net.exchange", sent, acked, round_span, round_);
      }
    }
  }
  if (!transport_failed_) {
    // The barrier tick fired the round: each connection now carries one decision per
    // tenant it owns, in job order; merge them back into member order.
    std::vector<std::string> lines;
    lines.reserve(ticks.size());
    for (int conn = 0; conn < num_conns_ && !transport_failed_; ++conn) {
      for (int k = 0; k < per_conn[static_cast<size_t>(conn)]; ++k) {
        std::string line;
        if (!Read(conn, &line)) {
          Error("decision-timeout", transcript);
          break;
        }
        lines.push_back(std::move(line));
      }
    }
    std::vector<std::string> ordered;
    if (!transport_failed_ && !OrderByTenant(members, lines, &ordered)) {
      Error("decision-demux", transcript);
    }
    if (!transport_failed_) {
      for (std::string& line : ordered) {
        transcript->push_back(std::move(line));
      }
      log_.round_ms.push_back(MsBetween(start, Clock::now()));
      log_.round_bytes.push_back(static_cast<double>(bytes_));
      log_.round_jobs.push_back(static_cast<double>(ticks.size()));
    }
  }
  if (tracer_ != nullptr) {
    tracer_->End(round_span);
  }
  ++round_;
}

// --- prefix replay -----------------------------------------------------------------

void PrefixBackend::Hello(const ChurnTenant& tenant, const alert::Goals& goals,
                          std::vector<std::string>* transcript, bool* admitted) {
  ++calls_;
  const Clock::time_point start = Clock::now();
  inner_.Hello(tenant, goals, transcript, admitted);
  if (tracer_ != nullptr) {
    tracer_->Add("core.rebuild", start, Clock::now(), -1, round_);
  }
}

void PrefixBackend::Bye(const ChurnTenant& tenant, std::vector<std::string>* transcript) {
  ++calls_;
  const Clock::time_point start = Clock::now();
  inner_.Bye(tenant, transcript);
  if (tracer_ != nullptr) {
    tracer_->Add("core.rebuild", start, Clock::now(), -1, round_);
  }
}

void PrefixBackend::GoalSet(const ChurnTenant& tenant, const alert::Goals& goals,
                            std::vector<std::string>* transcript) {
  ++calls_;
  inner_.GoalSet(tenant, goals, transcript);
}

void PrefixBackend::LimitSet(alert::Watts budget, std::vector<std::string>* transcript) {
  ++calls_;
  inner_.LimitSet(budget, transcript);
}

void PrefixBackend::SnapshotForReconnect(const ChurnTenant& tenant,
                                         std::vector<std::string>* transcript) {
  ++calls_;
  inner_.SnapshotForReconnect(tenant, transcript);
}

void PrefixBackend::Restore(const ChurnTenant& tenant,
                            std::vector<std::string>* transcript) {
  ++calls_;
  inner_.Restore(tenant, transcript);
}

void PrefixBackend::Round(const std::vector<TickInfo>& ticks,
                          std::vector<std::string>* transcript) {
  ++calls_;
  const Clock::time_point start = Clock::now();
  inner_.Round(ticks, transcript);
  if (tracer_ != nullptr) {
    tracer_->Add("core.round", start, Clock::now(), -1, round_);
  }
  ++round_;
}

}  // namespace perfbench

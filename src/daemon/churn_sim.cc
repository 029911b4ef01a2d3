#include "src/daemon/churn_sim.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/harness/constraint_grid.h"

namespace alert::daemon {
namespace {

// Parses a `decision` transcript line back into the decision the interpreter must
// execute client-side.  power_cap comes off the wire (%.17g round-trips exactly, so
// the executed request is bit-identical on both interpreters).
bool ParseDecisionLine(const std::string& line, SchedulingDecision* out) {
  serde::RecordReader reader;
  if (!serde::RecordReader::Parse(line, &reader)) {
    return false;
  }
  if (!reader.ExpectTag("decision")) {
    return false;
  }
  std::string tenant;
  int round = 0;
  int input = 0;
  SchedulingDecision d;
  serde::Status s = reader.Get("tenant", &tenant);
  if (s) s = reader.Get("round", &round);
  if (s) s = reader.Get("input", &input);
  if (s) s = reader.Get("model", &d.candidate.model_index);
  if (s) s = reader.Get("stage", &d.candidate.stage_limit);
  if (s) s = reader.Get("power_index", &d.power_index);
  if (s) s = reader.Get("power_cap", &d.power_cap);
  if (!s) {
    return false;
  }
  *out = d;
  return true;
}

// Universe names are "t<i>" by construction (MakeChurnScript).
int TenantIndexFromName(const std::string& name) {
  ALERT_CHECK(!name.empty() && name[0] == 't');
  return std::stoi(name.substr(1));
}

}  // namespace

// --- script generation ------------------------------------------------------------

ChurnScript MakeChurnScript(const ChurnScriptOptions& options) {
  ALERT_CHECK(options.max_tenants > 0);
  ALERT_CHECK(options.num_events > 0);
  ALERT_CHECK(options.initial_budget > 0.0);

  ChurnScript script;
  script.options = options;

  // Tenant universe: the heterogeneous mix of the multi-job harness (alternating
  // tasks, rotating candidate sets, staggered deadlines, a minority of
  // energy-minimization goals) plus a flip target per tenant.
  script.tenants.reserve(static_cast<size_t>(options.max_tenants));
  for (int i = 0; i < options.max_tenants; ++i) {
    ChurnTenant t;
    t.config.name = "t" + std::to_string(i);
    t.config.task =
        (i % 2 == 0) ? TaskId::kImageClassification : TaskId::kSentencePrediction;
    t.config.dnn_set = static_cast<DnnSetChoice>(i % 3);
    Goals g;
    g.deadline = (1.2 + 0.3 * (i % 3)) * BaseDeadline(t.config.task, options.platform);
    if (i % 4 == 3) {
      g.mode = GoalMode::kMinimizeEnergy;
      g.accuracy_goal = 0.85;
    } else {
      g.mode = GoalMode::kMaximizeAccuracy;
      g.energy_budget = 1e9;
    }
    t.config.goals = g;
    Goals alt = g;
    alt.deadline *= 1.5;
    if (alt.mode == GoalMode::kMinimizeEnergy) {
      alt.accuracy_goal = 0.80;
    } else {
      alt.energy_budget = 5e8;
    }
    // Odd tenants flip into an explicit probabilistic guarantee — prob_threshold is
    // a cache-key field, so flips exercise the selective invalidation path.
    alt.prob_threshold = (i % 2 == 1) ? 0.9 : 0.0;
    t.alt_goals = alt;
    t.trace_seed = options.seed * 7919 + 1000 + 17 * static_cast<uint64_t>(i);
    script.tenants.push_back(std::move(t));
  }

  Rng rng(options.seed);
  // Optimistic membership view; the interpreter re-validates (admission can refuse
  // an arrival the generator assumed in).
  std::vector<bool> present(static_cast<size_t>(options.max_tenants), false);
  auto pick = [&rng, &present](bool want_present) {
    std::vector<int> pool;
    for (size_t i = 0; i < present.size(); ++i) {
      if (present[i] == want_present) {
        pool.push_back(static_cast<int>(i));
      }
    }
    if (pool.empty()) {
      return -1;
    }
    return pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
  };

  // The script always opens with tenant 0 arriving so the first round has a member.
  script.events.push_back({ChurnEvent::Kind::kArrive, 0, 0.0});
  present[0] = true;

  for (int e = 1; e < options.num_events; ++e) {
    ChurnEvent event;
    if (rng.NextDouble() < options.churn_prob) {
      const double total = options.arrive_weight + options.depart_weight +
                           options.reconnect_weight + options.goal_flip_weight +
                           options.limit_weight;
      double v = rng.NextDouble() * total;
      if ((v -= options.arrive_weight) < 0.0) {
        const int t = pick(/*want_present=*/false);
        if (t >= 0) {
          event = {ChurnEvent::Kind::kArrive, t, 0.0};
          present[static_cast<size_t>(t)] = true;
        }
      } else if ((v -= options.depart_weight) < 0.0) {
        const int t = pick(/*want_present=*/true);
        if (t >= 0) {
          event = {ChurnEvent::Kind::kDepart, t, 0.0};
          present[static_cast<size_t>(t)] = false;
        }
      } else if ((v -= options.reconnect_weight) < 0.0) {
        const int t = pick(/*want_present=*/true);
        if (t >= 0) {
          event = {ChurnEvent::Kind::kReconnect, t, 0.0};
        }
      } else if ((v -= options.goal_flip_weight) < 0.0) {
        const int t = pick(/*want_present=*/true);
        if (t >= 0) {
          event = {ChurnEvent::Kind::kGoalFlip, t, 0.0};
        }
      } else {
        event = {ChurnEvent::Kind::kLimitSet, -1,
                 options.initial_budget * rng.Uniform(0.5, 1.25)};
      }
      // A churn slot whose pick came up empty falls through to a round.
    }
    if (event.kind == ChurnEvent::Kind::kRound) {
      event.tenant = -1;
    }
    script.events.push_back(event);
  }
  for (const ChurnEvent& event : script.events) {
    if (event.kind == ChurnEvent::Kind::kRound) {
      ++script.num_rounds;
    }
  }
  return script;
}

// --- interpreter ------------------------------------------------------------------

std::vector<std::string> RunChurnScript(const ChurnScript& script,
                                        ChurnBackend& backend) {
  const size_t n = script.tenants.size();
  // Client-side measurement plane: bit-identical Stacks (shared fixed seed) and
  // per-tenant deterministic traces.  Both interpreters build the same objects.
  StackCache stacks(script.options.platform, kAlertdStackSeed);
  std::vector<EnvironmentTrace> traces;
  traces.reserve(n);
  for (const ChurnTenant& t : script.tenants) {
    TraceOptions trace_options;
    trace_options.num_inputs = std::max(script.num_rounds, 1);
    trace_options.seed = t.trace_seed;
    traces.push_back(MakeEnvironmentTrace(t.config.task, script.options.platform,
                                          ContentionType::kNone, trace_options));
  }

  std::vector<bool> present(n, false);
  std::vector<bool> flipped(n, false);
  std::vector<int> ticks(n, 0);
  std::vector<bool> has_decision(n, false);
  std::vector<SchedulingDecision> last_decision(n);
  std::vector<InferenceRequest> last_request(n);
  std::vector<int> order;  // admission order (universe indices)

  std::vector<std::string> transcript;
  auto goals_of = [&](int t) {
    return flipped[static_cast<size_t>(t)] ? script.tenants[static_cast<size_t>(t)].alt_goals
                                           : script.tenants[static_cast<size_t>(t)].config.goals;
  };
  auto forget = [&](int t) {
    present[static_cast<size_t>(t)] = false;
    ticks[static_cast<size_t>(t)] = 0;
    has_decision[static_cast<size_t>(t)] = false;
    order.erase(std::find(order.begin(), order.end(), t));
  };

  for (const ChurnEvent& event : script.events) {
    if (backend.failed()) {
      break;
    }
    const int t = event.tenant;
    switch (event.kind) {
      case ChurnEvent::Kind::kArrive: {
        if (present[static_cast<size_t>(t)]) {
          break;  // generator optimism; skipped identically by both interpreters
        }
        bool admitted = false;
        backend.Hello(script.tenants[static_cast<size_t>(t)], goals_of(t),
                      &transcript, &admitted);
        if (admitted) {
          present[static_cast<size_t>(t)] = true;
          order.push_back(t);
        }
        break;
      }
      case ChurnEvent::Kind::kDepart: {
        if (!present[static_cast<size_t>(t)]) {
          break;
        }
        backend.Bye(script.tenants[static_cast<size_t>(t)], &transcript);
        forget(t);
        break;
      }
      case ChurnEvent::Kind::kReconnect: {
        if (!present[static_cast<size_t>(t)]) {
          break;
        }
        const ChurnTenant& tenant = script.tenants[static_cast<size_t>(t)];
        backend.SnapshotForReconnect(tenant, &transcript);
        backend.Bye(tenant, &transcript);
        order.erase(std::find(order.begin(), order.end(), t));
        bool admitted = false;
        backend.Hello(tenant, goals_of(t), &transcript, &admitted);
        if (admitted) {
          order.push_back(t);
          backend.Restore(tenant, &transcript);
          // ticks / last_decision survive: the restored belief owes a measurement
          // for the decision made before the reconnect.
        } else {
          // Budget shrank underneath the reconnect: the tenant is out, learned
          // state and all (both interpreters agree via the shared predicate).
          present[static_cast<size_t>(t)] = false;
          ticks[static_cast<size_t>(t)] = 0;
          has_decision[static_cast<size_t>(t)] = false;
        }
        break;
      }
      case ChurnEvent::Kind::kGoalFlip: {
        if (!present[static_cast<size_t>(t)]) {
          break;
        }
        flipped[static_cast<size_t>(t)] = !flipped[static_cast<size_t>(t)];
        backend.GoalSet(script.tenants[static_cast<size_t>(t)], goals_of(t),
                        &transcript);
        break;
      }
      case ChurnEvent::Kind::kLimitSet: {
        backend.LimitSet(event.budget, &transcript);
        break;
      }
      case ChurnEvent::Kind::kRound: {
        if (order.empty()) {
          break;
        }
        std::vector<TickInfo> round_ticks;
        round_ticks.reserve(order.size());
        for (int member : order) {
          const size_t m = static_cast<size_t>(member);
          TickInfo info;
          info.tenant = member;
          info.name = script.tenants[m].config.name;
          const Goals goals = goals_of(member);
          info.request.input_index = ticks[m];
          info.request.deadline = goals.deadline;
          info.request.period = goals.deadline;
          if (has_decision[m]) {
            // Execute the previous decision against this side's deterministic
            // simulator — identical decisions imply identical measurements.
            const ChurnTenant& tenant = script.tenants[m];
            const Stack& stack = stacks.Get(tenant.config.task, tenant.config.dnn_set);
            info.has_measurement = true;
            info.measurement = stack.simulator().Execute(
                last_decision[m].ToExecRequest(last_request[m]),
                traces[m].inputs[static_cast<size_t>(ticks[m] - 1)]);
          }
          round_ticks.push_back(std::move(info));
        }
        backend.Round(round_ticks, &transcript);
        if (backend.failed()) {
          break;
        }
        // The round appended |order| decision lines last; parse them back.
        ALERT_CHECK(transcript.size() >= order.size());
        const size_t base = transcript.size() - order.size();
        bool parsed_all = true;
        for (size_t i = 0; i < order.size(); ++i) {
          SchedulingDecision decision;
          if (!ParseDecisionLine(transcript[base + i], &decision)) {
            parsed_all = false;
            break;
          }
          const size_t m = static_cast<size_t>(order[i]);
          last_request[m] = round_ticks[i].request;
          last_decision[m] = decision;
          has_decision[m] = true;
          ++ticks[m];
        }
        if (!parsed_all) {
          // A malformed decision stream (daemon error, truncated read) cannot be
          // executed further; stop and let the transcript diff tell the story.
          return transcript;
        }
        break;
      }
    }
  }
  return transcript;
}

// --- driver backend ---------------------------------------------------------------

ChurnDriverBackend::ChurnDriverBackend(std::string host, int port, int read_timeout_ms)
    : host_(std::move(host)), port_(port), read_timeout_ms_(read_timeout_ms) {
  net::EnsureSigpipeIgnored();
}

std::unique_ptr<net::LineChannel> ChurnDriverBackend::Connect() {
  int fd = -1;
  if (!net::ConnectTcp(host_, port_, &fd)) {
    failed_ = true;
    return nullptr;
  }
  return std::make_unique<net::LineChannel>(fd, fd, /*owns_fds=*/true);
}

net::LineChannel* ChurnDriverBackend::ChannelFor(int tenant) {
  for (Conn& conn : conns_) {
    if (conn.tenant == tenant) {
      return conn.channel.get();
    }
  }
  return nullptr;
}

net::LineChannel* ChurnDriverBackend::ControlChannel() {
  if (control_ == nullptr) {
    control_ = Connect();
  }
  return control_.get();
}

bool ChurnDriverBackend::Exchange(net::LineChannel* channel, const std::string& line,
                                  std::vector<std::string>* transcript) {
  if (failed_) {
    return false;
  }
  if (channel == nullptr) {
    transcript->push_back("driver-error reason=no-channel");
    failed_ = true;
    return false;
  }
  if (!channel->WriteLine(line)) {
    transcript->push_back("driver-error reason=write-failed");
    failed_ = true;
    return false;
  }
  std::string reply;
  const net::ReadStatus status = channel->ReadLine(read_timeout_ms_, &reply);
  if (status != net::ReadStatus::kLine) {
    transcript->push_back(status == net::ReadStatus::kTimeout
                              ? "driver-error reason=read-timeout"
                              : "driver-error reason=connection-closed");
    failed_ = true;
    return false;
  }
  transcript->push_back(std::move(reply));
  return true;
}

void ChurnDriverBackend::Hello(const ChurnTenant& tenant, const Goals& goals,
                               std::vector<std::string>* transcript, bool* admitted) {
  *admitted = false;
  if (failed_) {
    return;
  }
  std::unique_ptr<net::LineChannel> channel = Connect();
  serde::RecordWriter w("tenant-hello");
  w.Field("tenant", tenant.config.name);
  w.Field("task", static_cast<int>(tenant.config.task));
  w.Field("dnn_set", static_cast<int>(tenant.config.dnn_set));
  AppendGoalsFields(goals, &w);
  if (!Exchange(channel.get(), w.line(), transcript)) {
    return;
  }
  serde::RecordReader reader;
  if (serde::RecordReader::Parse(transcript->back(), &reader) &&
      reader.tag() == "ok") {
    *admitted = true;
    // The tenant universe index keys the connection table.
    int index = -1;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].tenant < 0) {
        index = static_cast<int>(i);
        break;
      }
    }
    Conn conn;
    conn.tenant = TenantIndexFromName(tenant.config.name);
    conn.channel = std::move(channel);
    if (index >= 0) {
      conns_[static_cast<size_t>(index)] = std::move(conn);
    } else {
      conns_.push_back(std::move(conn));
    }
  }
  // A rejected hello just drops the channel (the daemon admitted nothing).
}

void ChurnDriverBackend::Bye(const ChurnTenant& tenant,
                             std::vector<std::string>* transcript) {
  const int id = TenantIndexFromName(tenant.config.name);
  serde::RecordWriter w("tenant-bye");
  w.Field("tenant", tenant.config.name);
  Exchange(ChannelFor(id), w.line(), transcript);
  for (Conn& conn : conns_) {
    if (conn.tenant == id) {
      conn.channel.reset();
      conn.tenant = -1;
    }
  }
}

void ChurnDriverBackend::GoalSet(const ChurnTenant& tenant, const Goals& goals,
                                 std::vector<std::string>* transcript) {
  serde::RecordWriter w("goal-set");
  w.Field("tenant", tenant.config.name);
  AppendGoalsFields(goals, &w);
  Exchange(ChannelFor(TenantIndexFromName(tenant.config.name)), w.line(), transcript);
}

void ChurnDriverBackend::LimitSet(Watts budget,
                                  std::vector<std::string>* transcript) {
  serde::RecordWriter w("limit-set");
  w.Field("budget", budget);
  Exchange(ControlChannel(), w.line(), transcript);
}

void ChurnDriverBackend::SnapshotForReconnect(const ChurnTenant& tenant,
                                              std::vector<std::string>* transcript) {
  const int id = TenantIndexFromName(tenant.config.name);
  serde::RecordWriter w("belief-snapshot");
  w.Field("tenant", tenant.config.name);
  if (!Exchange(ChannelFor(id), w.line(), transcript)) {
    return;
  }
  if (static_cast<size_t>(id) >= saved_belief_.size()) {
    saved_belief_.resize(static_cast<size_t>(id) + 1);
  }
  saved_belief_[static_cast<size_t>(id)] = transcript->back();
}

void ChurnDriverBackend::Restore(const ChurnTenant& tenant,
                                 std::vector<std::string>* transcript) {
  const int id = TenantIndexFromName(tenant.config.name);
  std::string saved;
  if (static_cast<size_t>(id) < saved_belief_.size()) {
    saved = saved_belief_[static_cast<size_t>(id)];
  }
  constexpr std::string_view kBeliefTag = "belief ";
  if (saved.rfind(kBeliefTag, 0) != 0) {
    transcript->push_back("driver-error reason=no-saved-belief");
    failed_ = true;
    return;
  }
  // Forward the snapshot bytes verbatim under the restore verb: the daemon gets
  // back the exact %.17g tokens it emitted, so the restore is bit-exact.
  const std::string line =
      "belief-restore " + saved.substr(kBeliefTag.size());
  Exchange(ChannelFor(id), line, transcript);
}

void ChurnDriverBackend::Round(const std::vector<TickInfo>& ticks,
                               std::vector<std::string>* transcript) {
  // Phase 1: every member ticks (ack read immediately, so the daemon-side order of
  // arrival is the member order).
  for (const TickInfo& info : ticks) {
    serde::RecordWriter w("round-tick");
    w.Field("tenant", info.name);
    w.Field("input", info.request.input_index);
    w.Field("deadline", info.request.deadline);
    w.Field("period", info.request.period);
    if (info.has_measurement) {
      const Measurement& m = info.measurement;
      w.Field("m_latency", m.latency);
      w.Field("m_period", m.period);
      w.Field("m_energy", m.energy);
      w.Field("m_ipower", m.inference_power);
      w.Field("m_idle", m.idle_power);
      w.Field("m_xi_t", m.xi_anchor_time);
      w.Field("m_xi_f", m.xi_anchor_fraction);
      w.Field("m_xi_c", m.xi_censored);
    }
    if (!Exchange(ChannelFor(info.tenant), w.line(), transcript)) {
      return;
    }
  }
  // Phase 2: the last tick fired the barrier; collect one decision per member.
  for (const TickInfo& info : ticks) {
    net::LineChannel* channel = ChannelFor(info.tenant);
    if (channel == nullptr) {
      transcript->push_back("driver-error reason=no-channel");
      failed_ = true;
      return;
    }
    std::string line;
    const net::ReadStatus status = channel->ReadLine(read_timeout_ms_, &line);
    if (status != net::ReadStatus::kLine) {
      transcript->push_back("driver-error reason=decision-timeout");
      failed_ = true;
      return;
    }
    transcript->push_back(std::move(line));
  }
}

// --- replay backend ---------------------------------------------------------------

ChurnReplayBackend::ChurnReplayBackend(const ChurnScript& script)
    : stacks_(script.options.platform, kAlertdStackSeed),
      // Mirror the daemon's decision-plane configuration exactly: the defaults of
      // AlertdOptions are the contract the equivalence tests run under.
      coordinator_({}, script.options.initial_budget, AlertdOptions{}.policy) {
  coordinator_.set_decision_cache_policy(AlertdOptions{}.cache_policy);
  saved_belief_.resize(script.tenants.size());
  has_saved_belief_.resize(script.tenants.size(), false);
}

int ChurnReplayBackend::FindSlot(int tenant) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].tenant == tenant) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Watts ChurnReplayBackend::FloorSum() const {
  Watts sum = 0.0;
  for (const Slot& slot : slots_) {
    sum += MinPowerFloor(slot.stack->space());
  }
  return sum;
}

void ChurnReplayBackend::Hello(const ChurnTenant& tenant, const Goals& goals,
                               std::vector<std::string>* transcript,
                               bool* admitted) {
  *admitted = false;
  const Stack& stack = stacks_.Get(tenant.config.task, tenant.config.dnn_set);
  if (!AdmissionAllows(FloorSum(), MinPowerFloor(stack.space()),
                       coordinator_.total_power_budget())) {
    transcript->push_back(FormatErrorLine("tenant-hello", "admission"));
    return;
  }
  JobSpec spec;
  spec.name = tenant.config.name;
  spec.space = &stack.space();
  spec.goals = goals;
  coordinator_.AddJob(std::move(spec));
  Slot slot;
  slot.tenant = TenantIndexFromName(tenant.config.name);
  slot.stack = &stack;
  slots_.push_back(slot);
  transcript->push_back(
      FormatHelloOkLine(tenant.config.name, static_cast<int>(slots_.size())));
  *admitted = true;
}

void ChurnReplayBackend::Bye(const ChurnTenant& tenant,
                             std::vector<std::string>* transcript) {
  const int index =
      FindSlot(TenantIndexFromName(tenant.config.name));
  ALERT_CHECK(index >= 0);
  coordinator_.RemoveJob(index);
  slots_.erase(slots_.begin() + index);
  transcript->push_back(FormatOkLine("tenant-bye", tenant.config.name));
}

void ChurnReplayBackend::GoalSet(const ChurnTenant& tenant, const Goals& goals,
                                 std::vector<std::string>* transcript) {
  const int index =
      FindSlot(TenantIndexFromName(tenant.config.name));
  ALERT_CHECK(index >= 0);
  coordinator_.SetJobGoals(index, goals);
  transcript->push_back(FormatOkLine("goal-set", tenant.config.name));
}

void ChurnReplayBackend::LimitSet(Watts budget,
                                  std::vector<std::string>* transcript) {
  coordinator_.set_total_power_budget(budget);
  transcript->push_back(FormatLimitOkLine(budget));
}

void ChurnReplayBackend::SnapshotForReconnect(const ChurnTenant& tenant,
                                              std::vector<std::string>* transcript) {
  const int id = TenantIndexFromName(tenant.config.name);
  const int index = FindSlot(id);
  ALERT_CHECK(index >= 0);
  const Slot& slot = slots_[static_cast<size_t>(index)];
  BeliefRecord record;
  record.belief = coordinator_.job(index).ExportBelief();
  record.has_decision = slot.has_decision;
  record.decision = slot.last_decision;
  saved_belief_[static_cast<size_t>(id)] = record;
  has_saved_belief_[static_cast<size_t>(id)] = true;
  transcript->push_back(FormatBeliefLine("belief", tenant.config.name, record));
}

void ChurnReplayBackend::Restore(const ChurnTenant& tenant,
                                 std::vector<std::string>* transcript) {
  const int id = TenantIndexFromName(tenant.config.name);
  const int index = FindSlot(id);
  ALERT_CHECK(index >= 0);
  ALERT_CHECK(has_saved_belief_[static_cast<size_t>(id)]);
  const BeliefRecord& record = saved_belief_[static_cast<size_t>(id)];
  coordinator_.job(index).RestoreBelief(record.belief);
  Slot& slot = slots_[static_cast<size_t>(index)];
  slot.has_decision = record.has_decision;
  slot.last_decision = record.decision;
  transcript->push_back(FormatOkLine("belief-restore", tenant.config.name));
}

void ChurnReplayBackend::Round(const std::vector<TickInfo>& ticks,
                               std::vector<std::string>* transcript) {
  ALERT_CHECK(ticks.size() == slots_.size());
  // Acks first — the daemon acks every tick before the last one fires the barrier.
  for (const TickInfo& info : ticks) {
    transcript->push_back(FormatOkLine("round-tick", info.name));
  }
  // Mirror of AlertdCore::MaybeFireRound: feedback in job order, then one batched
  // decision round under the shared budget.
  for (size_t i = 0; i < ticks.size(); ++i) {
    ALERT_CHECK(ticks[i].tenant == slots_[i].tenant);
    if (ticks[i].has_measurement) {
      coordinator_.job(static_cast<int>(i))
          .Observe(slots_[i].last_decision, ticks[i].measurement);
    }
  }
  std::vector<InferenceRequest> requests;
  requests.reserve(ticks.size());
  for (const TickInfo& info : ticks) {
    requests.push_back(info.request);
  }
  std::vector<SchedulingDecision> decisions = coordinator_.DecideRound(requests);
  for (size_t i = 0; i < ticks.size(); ++i) {
    slots_[i].last_decision = decisions[i];
    slots_[i].has_decision = true;
    transcript->push_back(FormatDecisionLine(
        ticks[i].name, round_, ticks[i].request.input_index, decisions[i]));
  }
  ++round_;
}

}  // namespace alert::daemon

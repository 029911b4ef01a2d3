#include "src/harness/sweep_io.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "src/common/check.h"

namespace alert {
namespace {

using serde::RecordReader;
using serde::RecordWriter;
using serde::Status;

constexpr int kFormatVersion = 1;

Status CheckVersion(RecordReader& reader) {
  int version = 0;
  Status s = reader.Get("v", &version);
  if (!s) {
    return s;
  }
  if (version != kFormatVersion) {
    return serde::Error("unsupported format version " + std::to_string(version));
  }
  return serde::Ok();
}

// Enum fields serialize as their integer values; parsing range-checks them so a
// corrupted file cannot materialize an out-of-range enum.
template <typename E>
Status GetEnum(RecordReader& reader, std::string_view key, int limit, E* out) {
  int value = 0;
  Status s = reader.Get(key, &value);
  if (!s) {
    return s;
  }
  if (value < 0 || value >= limit) {
    return serde::Error("field '" + std::string(key) + "' value " +
                        std::to_string(value) + " out of range [0, " +
                        std::to_string(limit) + ")");
  }
  *out = static_cast<E>(value);
  return serde::Ok();
}

void AppendCellFields(RecordWriter& w, const SweepCellSpec& cell) {
  w.Field("task", static_cast<int>(cell.task))
      .Field("platform", static_cast<int>(cell.platform))
      .Field("contention", static_cast<int>(cell.contention))
      .Field("mode", static_cast<int>(cell.mode));
}

Status ReadCellFields(RecordReader& reader, SweepCellSpec* cell) {
  Status s = GetEnum(reader, "task", 3, &cell->task);
  if (s) {
    s = GetEnum(reader, "platform", kNumPlatforms, &cell->platform);
  }
  if (s) {
    s = GetEnum(reader, "contention", 3, &cell->contention);
  }
  if (s) {
    s = GetEnum(reader, "mode", 3, &cell->mode);
  }
  return s;
}

}  // namespace

std::string SerializeSweepSpec(const SweepSpec& spec) {
  std::string text;
  text += RecordWriter("sweep-spec").Field("v", kFormatVersion).line();
  text += '\n';
  {
    RecordWriter w("option");
    w.Field("num_inputs", spec.num_inputs)
        .Field("contention_scale", spec.contention_scale)
        .Field("profile_noise_sigma", spec.profile_noise_sigma);
    if (spec.contention_window.has_value()) {
      w.Field("window_start", spec.contention_window->first)
          .Field("window_end", spec.contention_window->second);
    }
    text += w.line();
    text += '\n';
  }
  for (const SweepCellSpec& cell : spec.cells) {
    RecordWriter w("cell");
    AppendCellFields(w, cell);
    text += w.line();
    text += '\n';
  }
  for (const SchemeId scheme : spec.schemes) {
    text += RecordWriter("scheme").Field("id", static_cast<int>(scheme)).line();
    text += '\n';
  }
  for (const uint64_t seed : spec.seeds) {
    text += RecordWriter("seed").Field("value", seed).line();
    text += '\n';
  }
  for (const int gi : spec.grid_indices) {
    text += RecordWriter("grid").Field("setting", gi).line();
    text += '\n';
  }
  text += "end\n";
  return text;
}

serde::Status ParseSweepSpec(std::string_view text, SweepSpec* out) {
  *out = SweepSpec{};
  out->seeds.clear();  // the default {1} must not leak into a parsed spec
  const std::vector<std::string_view> lines = serde::DataLines(text);
  if (lines.empty()) {
    return serde::Error("empty spec");
  }

  RecordReader reader;
  Status s = RecordReader::Parse(lines[0], &reader);
  if (!s) {
    return serde::Wrap("spec header", s);
  }
  if (s) {
    s = reader.ExpectTag("sweep-spec");
  }
  if (s) {
    s = CheckVersion(reader);
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  if (!s) {
    return serde::Wrap("spec header", s);
  }

  bool saw_option = false;
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (saw_end) {
      return serde::Error("content after 'end'");
    }
    s = RecordReader::Parse(lines[i], &reader);
    if (!s) {
      return serde::Wrap("spec line " + std::to_string(i + 1), s);
    }
    const std::string& tag = reader.tag();
    if (tag == "end") {
      saw_end = true;
    } else if (tag == "option") {
      if (saw_option) {
        s = serde::Error("duplicate 'option' record");
      } else {
        saw_option = true;
        s = reader.Get("num_inputs", &out->num_inputs);
        if (s) {
          s = reader.Get("contention_scale", &out->contention_scale);
        }
        if (s) {
          s = reader.Get("profile_noise_sigma", &out->profile_noise_sigma);
        }
        if (s && reader.Has("window_start")) {
          int start = 0;
          int end = 0;
          s = reader.Get("window_start", &start);
          if (s) {
            s = reader.Get("window_end", &end);
          }
          if (s) {
            out->contention_window = std::make_pair(start, end);
          }
        }
      }
    } else if (tag == "cell") {
      SweepCellSpec cell;
      s = ReadCellFields(reader, &cell);
      if (s) {
        out->cells.push_back(cell);
      }
    } else if (tag == "scheme") {
      SchemeId scheme = SchemeId::kAlert;
      s = GetEnum(reader, "id", kNumSchemeIds, &scheme);
      if (s) {
        out->schemes.push_back(scheme);
      }
    } else if (tag == "seed") {
      uint64_t seed = 0;
      s = reader.Get("value", &seed);
      if (s) {
        out->seeds.push_back(seed);
      }
    } else if (tag == "grid") {
      int gi = 0;
      s = reader.Get("setting", &gi);
      if (s) {
        out->grid_indices.push_back(gi);
      }
    } else {
      s = serde::Error("unknown record '" + tag + "'");
    }
    if (s) {
      s = reader.ExpectAllConsumed();
    }
    if (!s) {
      return serde::Wrap("spec line " + std::to_string(i + 1), s);
    }
  }
  if (!saw_end) {
    return serde::Error("spec missing 'end' (truncated file?)");
  }
  if (!saw_option) {
    return serde::Error("spec missing 'option' record");
  }
  return ValidateSweepSpec(*out);
}

std::string SerializeSweepUnit(const SweepUnit& unit) {
  RecordWriter w("unit");
  w.Field("id", unit.id);
  AppendCellFields(w, unit.cell);
  w.Field("seed", unit.seed)
      .Field("grid", unit.grid_index)
      .Field("kind", static_cast<int>(unit.kind))
      .Field("inputs", unit.num_inputs);
  if (unit.kind == SweepUnitKind::kScheme) {
    w.Field("scheme", static_cast<int>(unit.scheme));
  }
  return w.line();
}

serde::Status ParseSweepUnit(std::string_view line, SweepUnit* out) {
  *out = SweepUnit{};
  RecordReader reader;
  Status s = RecordReader::Parse(line, &reader);
  if (s) {
    s = reader.ExpectTag("unit");
  }
  if (s) {
    s = reader.Get("id", &out->id);
  }
  if (s) {
    s = ReadCellFields(reader, &out->cell);
  }
  if (s) {
    s = reader.Get("seed", &out->seed);
  }
  if (s) {
    s = reader.Get("grid", &out->grid_index);
  }
  if (s) {
    s = GetEnum(reader, "kind", 2, &out->kind);
  }
  if (s) {
    s = reader.Get("inputs", &out->num_inputs);
  }
  if (s && out->kind == SweepUnitKind::kScheme) {
    s = GetEnum(reader, "scheme", kNumSchemeIds, &out->scheme);
  }
  if (s && (out->id < 0 || out->grid_index < 0 || out->num_inputs <= 0)) {
    s = serde::Error("unit has negative id/grid or non-positive inputs");
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  return serde::Wrap("unit", s);
}

std::string SerializeSweepUnitResult(const SweepUnitResult& result) {
  RecordWriter w("result");
  w.Field("unit", result.unit_id)
      .Field("skipped", result.skipped)
      .Field("usable", result.usable);
  if (result.usable) {
    w.Field("metric", result.metric);
  }
  return w.line();
}

serde::Status ParseSweepUnitResult(std::string_view line, SweepUnitResult* out) {
  *out = SweepUnitResult{};
  RecordReader reader;
  Status s = RecordReader::Parse(line, &reader);
  if (s) {
    s = reader.ExpectTag("result");
  }
  if (s) {
    s = reader.Get("unit", &out->unit_id);
  }
  if (s) {
    s = reader.Get("skipped", &out->skipped);
  }
  if (s) {
    s = reader.Get("usable", &out->usable);
  }
  if (s && out->usable) {
    s = reader.Get("metric", &out->metric);
  }
  if (s && out->unit_id < 0) {
    s = serde::Error("negative unit id");
  }
  if (s && out->skipped && out->usable) {
    s = serde::Error("result cannot be both skipped and usable");
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  return serde::Wrap("result", s);
}

uint64_t PlanFingerprint(const SweepPlan& plan) {
  // serde::Fnv1a64 over the spec text and then every unit line, each followed by
  // '\n', fed one line at a time instead of joined into one string first: the same
  // value without building the whole (hundreds of KB) blob.
  uint64_t hash = serde::Fnv1a64("");
  const auto feed = [&hash](std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<uint8_t>(c);
      hash *= 1099511628211ull;
    }
  };
  feed(SerializeSweepSpec(plan.spec));
  for (const SweepUnit& unit : plan.units) {
    feed(SerializeSweepUnit(unit));
    feed("\n");
  }
  return hash;
}

std::string SerializeShardResults(const ShardResults& shard) {
  std::string text;
  text += RecordWriter("sweep-results")
              .Field("v", kFormatVersion)
              .Field("plan", shard.plan_fingerprint)
              .Field("shards", shard.num_shards)
              .Field("shard", shard.shard_index)
              .Field("strategy", static_cast<int>(shard.strategy))
              .Field("units", static_cast<int>(shard.results.size()))
              .line();
  text += '\n';
  for (const SweepUnitResult& result : shard.results) {
    text += SerializeSweepUnitResult(result);
    text += '\n';
  }
  text += "end\n";
  return text;
}

serde::Status ParseShardResults(std::string_view text, ShardResults* out) {
  *out = ShardResults{};
  const std::vector<std::string_view> lines = serde::DataLines(text);
  if (lines.empty()) {
    return serde::Error("empty results file");
  }
  RecordReader reader;
  Status s = RecordReader::Parse(lines[0], &reader);
  if (s) {
    s = reader.ExpectTag("sweep-results");
  }
  if (s) {
    s = CheckVersion(reader);
  }
  int declared_units = 0;
  if (s) {
    s = reader.Get("plan", &out->plan_fingerprint);
  }
  if (s) {
    s = reader.Get("shards", &out->num_shards);
  }
  if (s) {
    s = reader.Get("shard", &out->shard_index);
  }
  if (s) {
    s = GetEnum(reader, "strategy", 2, &out->strategy);
  }
  if (s) {
    s = reader.Get("units", &declared_units);
  }
  if (s && (out->num_shards <= 0 || out->shard_index < 0 ||
            out->shard_index >= out->num_shards)) {
    s = serde::Error("shard index/count out of range");
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  if (!s) {
    return serde::Wrap("results header", s);
  }

  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (saw_end) {
      return serde::Error("content after 'end'");
    }
    if (lines[i] == "end") {
      saw_end = true;
      continue;
    }
    SweepUnitResult result;
    s = ParseSweepUnitResult(lines[i], &result);
    if (!s) {
      return serde::Wrap("results line " + std::to_string(i + 1), s);
    }
    out->results.push_back(result);
  }
  if (!saw_end) {
    return serde::Error("results missing 'end' (truncated file?)");
  }
  if (static_cast<int>(out->results.size()) != declared_units) {
    return serde::Error("results header declares " + std::to_string(declared_units) +
                        " units but file carries " +
                        std::to_string(out->results.size()));
  }
  return serde::Ok();
}

namespace {

constexpr int kCheckpointVersion = 2;
constexpr std::string_view kSumKey = " sum=";
constexpr size_t kSumDigits = 16;

// The checksum of a journal line's `body`: FNV-1a 64 as 16 lowercase hex digits
// (plus the snprintf terminator).
std::array<char, kSumDigits + 1> SumOf(std::string_view body) {
  std::array<char, kSumDigits + 1> sum;
  std::snprintf(sum.data(), sum.size(), "%016llx",
                static_cast<unsigned long long>(serde::Fnv1a64(body)));
  return sum;
}

// `body` + " sum=" + SumOf(body) + '\n': one checksummed journal line.
void AppendChecksummed(std::string_view body, std::string* out) {
  out->append(body);
  out->append(kSumKey);
  out->append(SumOf(body).data(), kSumDigits);
  out->push_back('\n');
}

// Verifies a journal line's trailing checksum against its raw bytes and returns the
// body before it.
Status SplitChecksummed(std::string_view line, std::string_view* body) {
  const size_t tail = kSumKey.size() + kSumDigits;
  if (line.size() < tail || line.substr(line.size() - tail, kSumKey.size()) != kSumKey) {
    return serde::Error("missing checksum");
  }
  *body = line.substr(0, line.size() - tail);
  if (line.substr(line.size() - kSumDigits) !=
      std::string_view(SumOf(*body).data(), kSumDigits)) {
    return serde::Error("checksum mismatch");
  }
  return serde::Ok();
}

Status ParseCheckpointHeader(std::string_view line, uint64_t* plan_fingerprint) {
  if (line.starts_with("sweep-checkpoint v=1 ")) {
    return serde::Error(
        "checkpoint grammar v=1 (whole-file rewrites) is no longer read");
  }
  std::string_view body;
  Status s = SplitChecksummed(line, &body);
  RecordReader reader;
  if (s) {
    s = RecordReader::Parse(body, &reader);
  }
  if (s) {
    s = reader.ExpectTag("sweep-checkpoint");
  }
  int version = 0;
  if (s) {
    s = reader.Get("v", &version);
  }
  if (s && version != kCheckpointVersion) {
    s = serde::Error("unsupported checkpoint version " + std::to_string(version));
  }
  if (s) {
    s = reader.Get("plan", plan_fingerprint);
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  return s;
}

}  // namespace

std::string SerializeSweepCheckpoint(const SweepCheckpoint& checkpoint) {
  std::string text;
  AppendChecksummed(RecordWriter("sweep-checkpoint")
                        .Field("v", kCheckpointVersion)
                        .Field("plan", checkpoint.plan_fingerprint)
                        .line(),
                    &text);
  for (const SweepUnitResult& result : checkpoint.results) {
    AppendChecksummed(SerializeSweepUnitResult(result), &text);
  }
  return text;
}

serde::Status ParseSweepCheckpoint(std::string_view text, SweepCheckpoint* out) {
  *out = SweepCheckpoint{};
  // Whatever follows the last '\n' is a torn tail: a record the dispatcher was
  // killed while appending.  Everything before it must be whole.
  const size_t last_newline = text.rfind('\n');
  if (last_newline == std::string_view::npos) {
    return serde::Error("checkpoint has no complete header line");
  }
  text = text.substr(0, last_newline + 1);

  std::unordered_map<int, size_t> index_of;  // unit id -> position in out->results
  size_t line_start = 0;
  for (int line_number = 1; line_start < text.size(); ++line_number) {
    const size_t line_end = text.find('\n', line_start);
    const std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    const std::string where = "checkpoint line " + std::to_string(line_number);
    if (line_number == 1) {
      const Status s = ParseCheckpointHeader(line, &out->plan_fingerprint);
      if (!s) {
        return serde::Wrap(where, s);
      }
      continue;
    }
    std::string_view body;
    SweepUnitResult result;
    Status s = SplitChecksummed(line, &body);
    if (s) {
      s = ParseSweepUnitResult(body, &result);
    }
    if (!s) {
      return serde::Wrap(where, s);
    }
    const auto [it, inserted] = index_of.try_emplace(result.unit_id, out->results.size());
    if (inserted) {
      out->results.push_back(result);
    } else if (!(out->results[it->second] == result)) {
      return serde::Error(where + ": unit " + std::to_string(result.unit_id) +
                          " recorded twice with different results");
    }
  }
  return serde::Ok();
}

SweepCheckpointJournal::~SweepCheckpointJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

serde::Status SweepCheckpointJournal::Open(const std::string& path,
                                           const SweepCheckpoint& base) {
  ALERT_CHECK(fd_ < 0);
  serde::Status s = serde::WriteFileAtomic(path, SerializeSweepCheckpoint(base));
  if (!s) {
    return s;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    return serde::Error("cannot open '" + path + "' for appending: " +
                        std::strerror(errno));
  }
  path_ = path;
  return serde::Ok();
}

void SweepCheckpointJournal::Add(const SweepUnitResult& result) {
  AppendChecksummed(SerializeSweepUnitResult(result), &pending_);
  ++pending_records_;
}

serde::Status SweepCheckpointJournal::Flush() {
  ALERT_CHECK(fd_ >= 0);
  size_t written = 0;
  while (written < pending_.size()) {
    const ssize_t n = ::write(fd_, pending_.data() + written, pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return serde::Error("cannot append to '" + path_ + "': " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  pending_.clear();
  pending_records_ = 0;
  return serde::Ok();
}

std::string SerializeProfileSnapshot(const ProfileSnapshot& snapshot) {
  std::string text;
  text += RecordWriter("profile-snapshot")
              .Field("v", kFormatVersion)
              .Field("models", snapshot.num_models)
              .Field("powers", snapshot.num_powers)
              .Field("candidates", static_cast<int>(snapshot.candidates.size()))
              .line();
  text += '\n';
  for (size_t p = 0; p < snapshot.caps.size(); ++p) {
    text += RecordWriter("cap")
                .Field("index", static_cast<int>(p))
                .Field("watts", snapshot.caps[p])
                .line();
    text += '\n';
  }
  for (size_t c = 0; c < snapshot.candidates.size(); ++c) {
    text += RecordWriter("candidate")
                .Field("index", static_cast<int>(c))
                .Field("model", snapshot.candidates[c].model_index)
                .Field("stage", snapshot.candidates[c].stage_limit)
                .Field("accuracy", snapshot.candidate_accuracy[c])
                .line();
    text += '\n';
  }
  for (int m = 0; m < snapshot.num_models; ++m) {
    for (int p = 0; p < snapshot.num_powers; ++p) {
      const size_t idx = static_cast<size_t>(m * snapshot.num_powers + p);
      text += RecordWriter("profile")
                  .Field("model", m)
                  .Field("power", p)
                  .Field("latency", snapshot.profile_latency[idx])
                  .Field("inference_power", snapshot.inference_power[idx])
                  .line();
      text += '\n';
    }
  }
  text += "end\n";
  return text;
}

serde::Status ParseProfileSnapshot(std::string_view text, ProfileSnapshot* out) {
  *out = ProfileSnapshot{};
  const std::vector<std::string_view> lines = serde::DataLines(text);
  if (lines.empty()) {
    return serde::Error("empty profile snapshot");
  }
  RecordReader reader;
  Status s = RecordReader::Parse(lines[0], &reader);
  if (s) {
    s = reader.ExpectTag("profile-snapshot");
  }
  if (s) {
    s = CheckVersion(reader);
  }
  int num_candidates = 0;
  if (s) {
    s = reader.Get("models", &out->num_models);
  }
  if (s) {
    s = reader.Get("powers", &out->num_powers);
  }
  if (s) {
    s = reader.Get("candidates", &num_candidates);
  }
  if (s && (out->num_models <= 0 || out->num_powers <= 0 || num_candidates <= 0)) {
    s = serde::Error("non-positive model/power/candidate count");
  }
  // Bound the declared sizes before resizing anything: a corrupted header must be a
  // diagnostic, not a bad_alloc/length_error escaping as std::terminate.  Real spaces
  // are tens of models x tens of caps; 100k per axis is orders of magnitude of slack.
  constexpr int kMaxAxis = 100000;
  constexpr size_t kMaxCells = 10000000;
  if (s && (out->num_models > kMaxAxis || out->num_powers > kMaxAxis ||
            num_candidates > kMaxAxis ||
            static_cast<size_t>(out->num_models) *
                    static_cast<size_t>(out->num_powers) >
                kMaxCells)) {
    s = serde::Error("implausibly large model/power/candidate count in header");
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  if (!s) {
    return serde::Wrap("snapshot header", s);
  }

  const size_t num_cells =
      static_cast<size_t>(out->num_models) * static_cast<size_t>(out->num_powers);
  out->caps.resize(static_cast<size_t>(out->num_powers), 0.0);
  out->candidates.resize(static_cast<size_t>(num_candidates));
  out->candidate_accuracy.resize(static_cast<size_t>(num_candidates), 0.0);
  out->profile_latency.resize(num_cells, 0.0);
  out->inference_power.resize(num_cells, 0.0);
  std::vector<bool> cap_seen(static_cast<size_t>(out->num_powers), false);
  std::vector<bool> candidate_seen(static_cast<size_t>(num_candidates), false);
  std::vector<bool> profile_seen(num_cells, false);

  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (saw_end) {
      return serde::Error("content after 'end'");
    }
    s = RecordReader::Parse(lines[i], &reader);
    if (!s) {
      return serde::Wrap("snapshot line " + std::to_string(i + 1), s);
    }
    const std::string& tag = reader.tag();
    if (tag == "end") {
      saw_end = true;
    } else if (tag == "cap") {
      int index = 0;
      s = reader.Get("index", &index);
      if (s && (index < 0 || index >= out->num_powers)) {
        s = serde::Error("cap index out of range");
      }
      if (s && cap_seen[static_cast<size_t>(index)]) {
        s = serde::Error("duplicate cap index " + std::to_string(index));
      }
      if (s) {
        cap_seen[static_cast<size_t>(index)] = true;
        s = reader.Get("watts", &out->caps[static_cast<size_t>(index)]);
      }
    } else if (tag == "candidate") {
      int index = 0;
      s = reader.Get("index", &index);
      if (s && (index < 0 || index >= num_candidates)) {
        s = serde::Error("candidate index out of range");
      }
      if (s && candidate_seen[static_cast<size_t>(index)]) {
        s = serde::Error("duplicate candidate index " + std::to_string(index));
      }
      if (s) {
        candidate_seen[static_cast<size_t>(index)] = true;
        Candidate& c = out->candidates[static_cast<size_t>(index)];
        s = reader.Get("model", &c.model_index);
        if (s) {
          s = reader.Get("stage", &c.stage_limit);
        }
        if (s && (c.model_index < 0 || c.model_index >= out->num_models ||
                  c.stage_limit < -1)) {
          s = serde::Error("candidate model/stage out of range");
        }
        if (s) {
          s = reader.Get("accuracy",
                         &out->candidate_accuracy[static_cast<size_t>(index)]);
        }
      }
    } else if (tag == "profile") {
      int m = 0;
      int p = 0;
      s = reader.Get("model", &m);
      if (s) {
        s = reader.Get("power", &p);
      }
      if (s && (m < 0 || m >= out->num_models || p < 0 || p >= out->num_powers)) {
        s = serde::Error("profile model/power out of range");
      }
      if (s) {
        const size_t idx = static_cast<size_t>(m) *
                               static_cast<size_t>(out->num_powers) +
                           static_cast<size_t>(p);
        if (profile_seen[idx]) {
          s = serde::Error("duplicate profile cell");
        } else {
          profile_seen[idx] = true;
          s = reader.Get("latency", &out->profile_latency[idx]);
          if (s) {
            s = reader.Get("inference_power", &out->inference_power[idx]);
          }
        }
      }
    } else {
      s = serde::Error("unknown record '" + tag + "'");
    }
    if (s) {
      s = reader.ExpectAllConsumed();
    }
    if (!s) {
      return serde::Wrap("snapshot line " + std::to_string(i + 1), s);
    }
  }
  if (!saw_end) {
    return serde::Error("snapshot missing 'end' (truncated file?)");
  }
  for (size_t p = 0; p < cap_seen.size(); ++p) {
    if (!cap_seen[p]) {
      return serde::Error("missing cap " + std::to_string(p));
    }
  }
  for (size_t c = 0; c < candidate_seen.size(); ++c) {
    if (!candidate_seen[c]) {
      return serde::Error("missing candidate " + std::to_string(c));
    }
  }
  for (size_t idx = 0; idx < profile_seen.size(); ++idx) {
    if (!profile_seen[idx]) {
      return serde::Error("missing profile cell " + std::to_string(idx));
    }
  }
  return serde::Ok();
}

std::string SweepAggregateCsv(const SweepPlan& plan, std::span<const CellResult> cells) {
  ALERT_CHECK(cells.size() == plan.spec.cells.size() * plan.spec.seeds.size());
  std::string csv;
  {
    char header[128];
    std::snprintf(header, sizeof(header), "# alert-sweep-csv v%d plan=%llu cells=%zu\n",
                  kFormatVersion,
                  static_cast<unsigned long long>(PlanFingerprint(plan)), cells.size());
    csv += header;
  }
  csv +=
      "task,platform,contention,mode,seed,inputs,scheme,settings,skipped_settings,"
      "usable_settings,violated_settings,mean_normalized,mean_raw,static_mean_raw\n";
  for (const CellResult& cell : cells) {
    const std::string prefix =
        std::string(TaskName(cell.spec.task)) + "," +
        std::string(PlatformName(cell.spec.platform)) + "," +
        std::string(ContentionName(cell.spec.contention)) + "," +
        std::string(GoalModeName(cell.spec.mode)) + "," +
        std::to_string(cell.spec.options.seed) + "," +
        std::to_string(cell.spec.options.num_inputs) + ",";
    for (const SchemeCellStats& stats : cell.schemes) {
      csv += prefix;
      csv += SchemeName(stats.scheme);
      csv += ',';
      csv += std::to_string(cell.total_settings);
      csv += ',';
      csv += std::to_string(cell.skipped_settings);
      csv += ',';
      csv += std::to_string(stats.usable_settings);
      csv += ',';
      csv += std::to_string(stats.violated_settings);
      csv += ',';
      csv += serde::FormatDouble(stats.mean_normalized);
      csv += ',';
      csv += serde::FormatDouble(stats.mean_raw);
      csv += ',';
      csv += serde::FormatDouble(cell.static_mean_raw);
      csv += '\n';
    }
  }
  return csv;
}

}  // namespace alert

// Text serialization for sweep specs, work units, per-unit results, profile
// snapshots, and the aggregate sweep CSV.
//
// These are the wire formats of the sharded sweep pipeline (record grammar in
// src/common/serde.h):
//
//   spec file      — `sweep-spec v=1` header, then `option`/`cell`/`scheme`/`seed`/
//                    `grid` records and an `end` line.  sweep_shard and sweep_merge
//                    both rebuild the plan from it, so every process enumerates the
//                    identical unit list.
//   unit line      — one self-describing record per SweepUnit (`--print-units`,
//                    benches, tests).
//   results file   — the checksummed `sweep-checkpoint v=2` journal (SweepCheckpoint
//                    below): the plan fingerprint, then one `result` record per
//                    unit.  sweep_shard --out and sweep_dispatch --checkpoint-dir both
//                    write it, and LoadSweepResults reads it back for sweep_merge and a
//                    resume; the fingerprint lets either refuse results produced from
//                    a different spec instead of quietly mis-merging them.
//   profile snapshot — the flattened ConfigSpace profile (see ProfileSnapshot), the
//                    state a remote shard would need to rebuild a DecisionEngine
//                    without re-profiling.
//   aggregate CSV  — the sweep's deliverable: one row per (cell, seed, scheme) with
//                    the Table 4 accounting (usable/violated settings, mean normalized
//                    and raw metrics, the OracleStatic baseline).  Deterministically
//                    formatted, so the merged K-shard sweep is byte-identical to the
//                    monolithic one.
//
// Every parser returns serde::Status; malformed input is a diagnostic, never a crash.
#ifndef SRC_HARNESS_SWEEP_IO_H_
#define SRC_HARNESS_SWEEP_IO_H_

#include <span>
#include <string>
#include <string_view>

#include "src/common/serde.h"
#include "src/core/config_space.h"
#include "src/harness/evaluation.h"
#include "src/harness/sweep_plan.h"

namespace alert {

std::string SerializeSweepSpec(const SweepSpec& spec);
serde::Status ParseSweepSpec(std::string_view text, SweepSpec* out);

// One-line unit record (no trailing newline).
std::string SerializeSweepUnit(const SweepUnit& unit);
serde::Status ParseSweepUnit(std::string_view line, SweepUnit* out);

std::string SerializeSweepUnitResult(const SweepUnitResult& result);
serde::Status ParseSweepUnitResult(std::string_view line, SweepUnitResult* out);

// Stable fingerprint over the serialized spec plus the unit list; identifies "the same
// plan" across processes.
uint64_t PlanFingerprint(const SweepPlan& plan);

// A results file: a shard's executed units (sweep_shard --out) or a dispatcher
// checkpoint, the append-only journal of the merge accumulator's recorded unit
// results.  It is fingerprint-guarded so results from a different plan are refused
// instead of silently poisoning the merge.
//
// Grammar (one record per '\n'-terminated line):
//   sweep-checkpoint v=2 plan=FP sum=HEX
//   result unit=ID skipped=B usable=B [metric=X] sum=HEX      (repeated)
// A result record is the result line (SerializeSweepUnitResult) plus `sum`: the
// FNV-1a 64 of every byte before " sum=", as 16 lowercase hex digits.  The checksum
// is required because a `%.17g` metric cut short still parses as a number.
//
// Read rule: an unterminated last line is a torn tail — a dispatcher killed
// mid-append — and is dropped.  Every '\n'-terminated line must parse and verify, or
// the file is refused.  A unit id recorded twice must carry the same payload (the
// repeat is dropped); a differing duplicate is refused, as is the old
// `sweep-checkpoint v=1` whole-file grammar.
struct SweepCheckpoint {
  uint64_t plan_fingerprint = 0;
  std::vector<SweepUnitResult> results;

  friend bool operator==(const SweepCheckpoint&, const SweepCheckpoint&) = default;
};

// The compacted journal: the header plus one record per result, in order.
std::string SerializeSweepCheckpoint(const SweepCheckpoint& checkpoint);
serde::Status ParseSweepCheckpoint(std::string_view text, SweepCheckpoint* out);

// Reads the results file at `path`, refuses one written for a plan other than
// `plan_fingerprint`, and appends its results to `out`.  Diagnostics name the file.
// With `require_whole` set, a file whose last byte is not '\n' is refused as
// truncated instead of having its torn tail dropped: a finished shard file or
// checkpoint is always whole, while a killed dispatcher's checkpoint may not be.
serde::Status LoadSweepResults(const std::string& path, uint64_t plan_fingerprint,
                               bool require_whole, std::vector<SweepUnitResult>* out);

// The dispatcher's handle on a checkpoint journal.  Open writes the header and the
// base records once (serde::WriteFileAtomic) and keeps the file open; Add buffers
// one record; Flush appends every buffered record in one write().  There is no
// fsync: the journal survives a killed dispatcher, not a lost machine.  Records
// still buffered when the journal is destroyed are dropped, as a crash would.
class SweepCheckpointJournal {
 public:
  SweepCheckpointJournal() = default;
  ~SweepCheckpointJournal();
  SweepCheckpointJournal(const SweepCheckpointJournal&) = delete;
  SweepCheckpointJournal& operator=(const SweepCheckpointJournal&) = delete;

  serde::Status Open(const std::string& path, const SweepCheckpoint& base);
  void Add(const SweepUnitResult& result);
  int pending() const { return pending_records_; }
  serde::Status Flush();

 private:
  int fd_ = -1;
  std::string path_;
  std::string pending_;
  int pending_records_ = 0;
};

std::string SerializeProfileSnapshot(const ProfileSnapshot& snapshot);
serde::Status ParseProfileSnapshot(std::string_view text, ProfileSnapshot* out);

// The aggregate CSV over merged cell results (one CellResult per (cell, seed) in plan
// order, as produced by MergeSweepResults / RunSweep).
std::string SweepAggregateCsv(const SweepPlan& plan, std::span<const CellResult> cells);

}  // namespace alert

#endif  // SRC_HARNESS_SWEEP_IO_H_

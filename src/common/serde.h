// Minimal line-oriented record serialization for sweep work units and results.
//
// Sharded sweeps move work between processes as plain text files: a record per line,
// `tag key=value key=value ...`, values restricted to whitespace-free tokens.  The
// format is deliberately dumb — diffable, greppable, mergeable with coreutils — and
// deterministic: doubles round-trip exactly via %.17g, fields are written in a fixed
// order, and parsing is strict (unknown keys, duplicate keys, non-finite numbers and
// trailing junk are errors, not warnings), so two serializations of equal values are
// byte-identical and a corrupted shard file fails loudly at merge time instead of
// silently skewing an aggregate.
//
// Errors are reported through `Status` (no exceptions): every parser returns one, and
// malformed input must never abort the process.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alert::serde {

struct Status {
  bool ok = true;
  std::string message;

  explicit operator bool() const { return ok; }
};

inline Status Ok() { return Status{}; }
Status Error(std::string message);
// Prefixes `context` to an existing error ("context: original message").
Status Wrap(std::string_view context, const Status& status);

// Shortest exact round-trip formatting ("%.17g").  The value must be finite: sweep
// metrics and profile constants are finite by construction, so a NaN/inf reaching the
// serializer is a logic error upstream (checked, aborts).
std::string FormatDouble(double value);

// Strict token parsers: the whole token must be consumed, and doubles must be finite
// (NaN/inf tokens are rejected — the merge plane averages these values).
Status ParseDouble(std::string_view token, double* out);
Status ParseInt64(std::string_view token, int64_t* out);
Status ParseInt(std::string_view token, int* out);
Status ParseUint64(std::string_view token, uint64_t* out);
Status ParseBool(std::string_view token, bool* out);  // "0" or "1"

// FNV-1a 64-bit hash; fingerprints serialized plans so results files from a different
// spec are rejected at merge time.
uint64_t Fnv1a64(std::string_view bytes);

// Splits text into lines, dropping empty lines and '#' comment lines.  Views point
// into `text`.
std::vector<std::string_view> DataLines(std::string_view text);

// Builds one record line: `tag key=value ...`.  Keys and values must be non-empty and
// whitespace-free (checked, aborts — records are written by code, not users).
class RecordWriter {
 public:
  explicit RecordWriter(std::string_view tag);

  RecordWriter& Field(std::string_view key, std::string_view value);
  // Without this overload a string literal would prefer the bool overload (pointer ->
  // bool is a standard conversion; -> string_view is user-defined).
  RecordWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  RecordWriter& Field(std::string_view key, int value);
  RecordWriter& Field(std::string_view key, int64_t value);
  RecordWriter& Field(std::string_view key, uint64_t value);
  RecordWriter& Field(std::string_view key, double value);
  RecordWriter& Field(std::string_view key, bool value);

  // The assembled line, without a trailing newline.
  const std::string& line() const { return line_; }

 private:
  std::string line_;
};

// Parses and consumes one record line.  Typed getters mark fields consumed;
// `ExpectAllConsumed` then rejects unknown fields, so schema drift between writer and
// reader surfaces as a parse error naming the offending key.
class RecordReader {
 public:
  // On failure the reader is unusable.  Duplicate keys and bare (valueless) tokens are
  // parse errors.
  static Status Parse(std::string_view line, RecordReader* out);

  const std::string& tag() const { return tag_; }
  Status ExpectTag(std::string_view tag) const;

  bool Has(std::string_view key) const;

  // Each getter fails if the key is absent, already consumed, or the value does not
  // parse (with the key named in the message).
  Status Get(std::string_view key, std::string* out);
  Status Get(std::string_view key, int* out);
  Status Get(std::string_view key, int64_t* out);
  Status Get(std::string_view key, uint64_t* out);
  Status Get(std::string_view key, double* out);
  Status Get(std::string_view key, bool* out);

  // Error if any field was never consumed (names the first leftover key).
  Status ExpectAllConsumed() const;

 private:
  Status Take(std::string_view key, std::string_view* value);

  std::string tag_;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<bool> consumed_;
};

// Whole-file helpers (I/O failures become Status errors, never aborts).
Status ReadFile(const std::string& path, std::string* out);
Status WriteFile(const std::string& path, std::string_view contents);
// Crash-safe variant: writes `path`.tmp, then renames over `path`, so a reader never
// observes a half-written file (checkpoints rely on this).  No fsync: the file
// survives a killed process, not a lost machine.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace alert::serde

#endif  // SRC_COMMON_SERDE_H_

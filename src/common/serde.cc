#include "src/common/serde.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "src/common/check.h"

namespace alert::serde {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// strtod/strtoll/strtoull skip leading whitespace, so a number token is refused when
// it starts with any byte std::isspace accepts: the whole token must be the number.
bool LeadsWithSpace(std::string_view token) {
  return !token.empty() && std::isspace(static_cast<unsigned char>(token[0])) != 0;
}

bool HasWhitespace(std::string_view s) {
  for (char c : s) {
    if (IsSpace(c) || c == '\n') {
      return true;
    }
  }
  return false;
}

// Splits `line` into whitespace-separated tokens.
std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSpace(line[i])) {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) {
      ++i;
    }
    if (i > start) {
      tokens.push_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Status Error(std::string message) { return Status{false, std::move(message)}; }

Status Wrap(std::string_view context, const Status& status) {
  if (status.ok) {
    return status;
  }
  return Error(std::string(context) + ": " + status.message);
}

std::string FormatDouble(double value) {
  ALERT_CHECK(std::isfinite(value));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Status ParseDouble(std::string_view token, double* out) {
  if (token.empty()) {
    return Error("empty number");
  }
  const std::string copy(token);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (LeadsWithSpace(token) || end != copy.c_str() + copy.size()) {
    return Error("malformed number '" + copy + "'");
  }
  if (!std::isfinite(value)) {
    return Error("non-finite number '" + copy + "'");
  }
  // (errno == ERANGE with a finite result means denormal underflow; accepted.)
  *out = value;
  return Ok();
}

Status ParseInt64(std::string_view token, int64_t* out) {
  if (token.empty()) {
    return Error("empty integer");
  }
  const std::string copy(token);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(copy.c_str(), &end, 10);
  if (LeadsWithSpace(token) || end != copy.c_str() + copy.size()) {
    return Error("malformed integer '" + copy + "'");
  }
  if (errno == ERANGE) {
    return Error("integer out of range '" + copy + "'");
  }
  *out = static_cast<int64_t>(value);
  return Ok();
}

Status ParseInt(std::string_view token, int* out) {
  int64_t wide = 0;
  Status s = ParseInt64(token, &wide);
  if (!s) {
    return s;
  }
  if (wide < std::numeric_limits<int>::min() || wide > std::numeric_limits<int>::max()) {
    return Error("integer out of range '" + std::string(token) + "'");
  }
  *out = static_cast<int>(wide);
  return Ok();
}

Status ParseUint64(std::string_view token, uint64_t* out) {
  if (token.empty()) {
    return Error("empty integer");
  }
  if (token[0] == '-' || token[0] == '+' || LeadsWithSpace(token)) {
    return Error("malformed unsigned integer '" + std::string(token) + "'");
  }
  const std::string copy(token);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) {
    return Error("malformed unsigned integer '" + copy + "'");
  }
  if (errno == ERANGE) {
    return Error("unsigned integer out of range '" + copy + "'");
  }
  *out = static_cast<uint64_t>(value);
  return Ok();
}

Status ParseBool(std::string_view token, bool* out) {
  if (token == "0") {
    *out = false;
    return Ok();
  }
  if (token == "1") {
    *out = true;
    return Ok();
  }
  return Error("malformed bool '" + std::string(token) + "' (want 0 or 1)");
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<std::string_view> DataLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(start, end - start);
    while (!line.empty() && IsSpace(line.back())) {
      line.remove_suffix(1);
    }
    while (!line.empty() && IsSpace(line.front())) {
      line.remove_prefix(1);
    }
    if (!line.empty() && line.front() != '#') {
      lines.push_back(line);
    }
    if (end == text.size()) {
      break;
    }
    start = end + 1;
  }
  return lines;
}

RecordWriter::RecordWriter(std::string_view tag) : line_(tag) {
  ALERT_CHECK(!tag.empty() && !HasWhitespace(tag));
}

RecordWriter& RecordWriter::Field(std::string_view key, std::string_view value) {
  ALERT_CHECK(!key.empty() && !HasWhitespace(key) && key.find('=') == std::string_view::npos);
  ALERT_CHECK(!value.empty() && !HasWhitespace(value));
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += value;
  return *this;
}

RecordWriter& RecordWriter::Field(std::string_view key, int value) {
  return Field(key, static_cast<int64_t>(value));
}

RecordWriter& RecordWriter::Field(std::string_view key, int64_t value) {
  return Field(key, std::string_view(std::to_string(value)));
}

RecordWriter& RecordWriter::Field(std::string_view key, uint64_t value) {
  return Field(key, std::string_view(std::to_string(value)));
}

RecordWriter& RecordWriter::Field(std::string_view key, double value) {
  return Field(key, std::string_view(FormatDouble(value)));
}

RecordWriter& RecordWriter::Field(std::string_view key, bool value) {
  return Field(key, std::string_view(value ? "1" : "0"));
}

Status RecordReader::Parse(std::string_view line, RecordReader* out) {
  *out = RecordReader();
  const std::vector<std::string_view> tokens = Tokens(line);
  if (tokens.empty()) {
    return Error("empty record");
  }
  if (tokens[0].find('=') != std::string_view::npos) {
    return Error("record tag missing (first token '" + std::string(tokens[0]) +
                 "' looks like a field)");
  }
  out->tag_ = std::string(tokens[0]);
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Error("malformed field '" + std::string(token) + "' (want key=value)");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) {
      return Error("field '" + std::string(key) + "' has empty value");
    }
    for (const auto& [existing, unused] : out->fields_) {
      if (existing == key) {
        return Error("duplicate field '" + std::string(key) + "'");
      }
    }
    out->fields_.emplace_back(std::string(key), std::string(value));
  }
  out->consumed_.assign(out->fields_.size(), false);
  return Ok();
}

Status RecordReader::ExpectTag(std::string_view tag) const {
  if (tag_ != tag) {
    return Error("expected record '" + std::string(tag) + "', got '" + tag_ + "'");
  }
  return Ok();
}

bool RecordReader::Has(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

Status RecordReader::Take(std::string_view key, std::string_view* value) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].first == key) {
      if (consumed_[i]) {
        return Error("field '" + std::string(key) + "' read twice");
      }
      consumed_[i] = true;
      *value = fields_[i].second;
      return Ok();
    }
  }
  return Error("missing field '" + std::string(key) + "' in record '" + tag_ + "'");
}

Status RecordReader::Get(std::string_view key, std::string* out) {
  std::string_view value;
  Status s = Take(key, &value);
  if (!s) {
    return s;
  }
  *out = std::string(value);
  return Ok();
}

namespace {
// Shared body of the typed getters: take the raw value, parse, contextualize errors.
template <typename T, typename Parser>
Status GetParsed(RecordReader& reader, std::string_view key, T* out, Parser parse,
                 Status (RecordReader::*take)(std::string_view, std::string_view*)) {
  std::string_view value;
  Status s = (reader.*take)(key, &value);
  if (!s) {
    return s;
  }
  return Wrap("field '" + std::string(key) + "'", parse(value, out));
}
}  // namespace

Status RecordReader::Get(std::string_view key, int* out) {
  return GetParsed(*this, key, out, ParseInt, &RecordReader::Take);
}

Status RecordReader::Get(std::string_view key, int64_t* out) {
  return GetParsed(*this, key, out, ParseInt64, &RecordReader::Take);
}

Status RecordReader::Get(std::string_view key, uint64_t* out) {
  return GetParsed(*this, key, out, ParseUint64, &RecordReader::Take);
}

Status RecordReader::Get(std::string_view key, double* out) {
  return GetParsed(*this, key, out, ParseDouble, &RecordReader::Take);
}

Status RecordReader::Get(std::string_view key, bool* out) {
  return GetParsed(*this, key, out, ParseBool, &RecordReader::Take);
}

Status RecordReader::ExpectAllConsumed() const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (!consumed_[i]) {
      return Error("unknown field '" + fields_[i].first + "' in record '" + tag_ + "'");
    }
  }
  return Ok();
}

Status ReadFile(const std::string& path, std::string* out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Error("cannot open '" + path + "' for reading");
  }
  out->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out->append(buf, n);
  }
  if (std::ferror(f.get()) != 0) {
    return Error("read error on '" + path + "'");
  }
  return Ok();
}

Status WriteFile(const std::string& path, std::string_view contents) {
  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Error("cannot open '" + path + "' for writing");
  }
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f.get()) != contents.size()) {
    return Error("write error on '" + path + "'");
  }
  if (std::fflush(f.get()) != 0) {
    return Error("write error on '" + path + "'");
  }
  return Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  Status s = WriteFile(tmp, contents);
  if (!s) {
    return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Ok();
}

}  // namespace alert::serde

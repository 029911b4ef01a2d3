// One strict command-line parser for every binary.
//
// A binary declares its flags in one table; each entry binds a typed destination
// and the values it accepts.  The Parser owns the policy: flags are `--name=value`
// (a switch is a bare `--name`, a positional does not start with '-'); numbers go
// through serde::Parse* (whole token, finite) and a range check; a named choice
// must be one of its tokens, a string must be non-empty.  An unknown flag, a
// repeated one (unless Repeatable()), a bad value or a missing Required() entry is
// a usage error: `prog: --flag: expected <what>, got '<v>'` on stderr, the usage
// text on stdout, exit 2.  `--help` prints the usage text, generated from the same
// table with each entry's accepted values and default, and exits 0.
// No <iostream>, <regex> or locale: alertd's and every sweep_shard worker's
// start-up is part of their measured set-up time.  Everything here runs once, so
// every function is [[gnu::cold]]: compiled for size and linked apart from the hot
// code, it adds few pages to those processes' resident set.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace alert::flags {

// One table entry.  Build entries with the factories below; `spec` is "--name=VALUE"
// for a flag that takes a value, "--name" for a switch.
struct Flag {
  std::string name;          // "--port", "-v", or a positional's metavar
  std::string metavar;       // "N" for "--port=N"; empty for a switch
  std::string help;          // may span lines
  std::string expect;        // the accepted values, for errors and --help
  std::string default_text;  // the destination's value before parsing; "" = none
  // Parses one value into the destination; false when it is not accepted.
  std::function<bool(std::string_view)> set;
  bool repeatable = false;
  bool required = false;
  bool positional = false;

  // "--port=N", "--print" or "RESULTS_FILE...".
  std::string label() const { return metavar.empty() ? name : name + "=" + metavar; }
  Flag Required() && {
    required = true;
    return std::move(*this);
  }
  Flag Repeatable() && {
    repeatable = true;
    return std::move(*this);
  }
};

// An integer in [min, max] (int, int64_t or uint64_t).
template <typename T>
[[gnu::cold]] Flag Int(std::string_view spec, T* dest, std::type_identity_t<T> min,
                       std::type_identity_t<T> max, std::string help);
template <typename T>
[[gnu::cold]] Flag Int(std::string_view spec, T* dest, std::type_identity_t<T> min,
                       std::string help) {
  return Int(spec, dest, min, std::numeric_limits<T>::max(), std::move(help));
}

// A finite double between `min` and `max` (kUnbounded: no upper bound).
enum class Bound { kInclusive, kExclusive };
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();
[[gnu::cold]] Flag Double(std::string_view spec, double* dest, double min, double max,
                          std::string help, Bound min_bound = Bound::kInclusive,
                          Bound max_bound = Bound::kInclusive);

[[gnu::cold]] Flag String(std::string_view spec, std::string* dest, std::string help);
// Sets *dest to true when given.
[[gnu::cold]] Flag Switch(std::string_view name, bool* dest, std::string help);
// A value with its own parser: `set` stores it, or returns false to refuse it.
[[gnu::cold]] Flag Value(std::string_view spec, std::string expect,
                         std::function<bool(std::string_view)> set, std::string help);
// Collects every positional argument.
[[gnu::cold]] Flag Positional(std::string_view metavar, std::vector<std::string>* dest,
                              std::string help);

// A named choice: `tokens` is a range of (token, value) pairs, and the token given
// stores its value in *dest (which may be a std::optional of the value type).
template <typename Dest, typename Tokens>
[[gnu::cold]] Flag Choice(std::string_view spec, Dest* dest, const Tokens& tokens,
                          std::string help) {
  std::string expect;
  std::string current;
  for (const auto& [name, value] : tokens) {
    expect += (expect.empty() ? "one of " : ", ") + std::string(name);
    if (*dest == value) {
      current = name;
    }
  }
  Flag flag = Value(
      spec, std::move(expect),
      [dest, tokens](std::string_view v) {
        for (const auto& [name, value] : tokens) {
          if (name == v) {
            *dest = value;
            return true;
          }
        }
        return false;
      },
      std::move(help));
  flag.default_text = std::move(current);
  return flag;
}

// (name(v), v) for each v: a token set built from an enum's name function.
template <typename T>
[[gnu::cold]] std::vector<std::pair<std::string_view, T>> Named(
    std::initializer_list<T> values, std::string_view (*name)(T)) {
  std::vector<std::pair<std::string_view, T>> tokens;
  for (const T value : values) {
    tokens.emplace_back(name(value), value);
  }
  return tokens;
}

class Parser {
 public:
  // `synopsis` follows "usage: prog " on the first usage line(s).
  [[gnu::cold]] Parser(std::string prog, std::string synopsis, std::vector<Flag> table);

  // Applies argv[1..argc) to the table; `--help` and errors exit (see above).
  [[gnu::cold]] void Parse(int argc, const char* const* argv) const;
  // A usage error, for the checks that involve more than one flag: `prog: message`
  // on stderr, Usage() on stdout, exit 2.
  [[noreturn, gnu::cold]] void Fail(const std::string& message) const;
  [[gnu::cold]] std::string Usage() const;

 private:
  std::string prog_;
  std::string synopsis_;
  std::vector<Flag> table_;
};

}  // namespace alert::flags

#endif  // SRC_COMMON_FLAGS_H_

#include "src/common/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/serde.h"

namespace alert::flags {
namespace {

std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

bool ParseNumber(std::string_view v, int* out) { return serde::ParseInt(v, out).ok; }
bool ParseNumber(std::string_view v, int64_t* out) {
  return serde::ParseInt64(v, out).ok;
}
bool ParseNumber(std::string_view v, uint64_t* out) {
  return serde::ParseUint64(v, out).ok;
}

}  // namespace

Flag Value(std::string_view spec, std::string expect,
           std::function<bool(std::string_view)> set, std::string help) {
  Flag flag;
  const size_t eq = spec.find('=');
  flag.name = std::string(spec.substr(0, eq));
  flag.metavar = eq == std::string_view::npos ? "" : std::string(spec.substr(eq + 1));
  flag.expect = std::move(expect);
  flag.help = std::move(help);
  flag.set = std::move(set);
  return flag;
}

template <typename T>
Flag Int(std::string_view spec, T* dest, std::type_identity_t<T> min,
         std::type_identity_t<T> max, std::string help) {
  std::string expect = "an integer";
  if (max != std::numeric_limits<T>::max()) {
    expect += " in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  } else if (std::is_unsigned_v<T> || min != std::numeric_limits<T>::min()) {
    expect += " >= " + std::to_string(min);
  }
  const auto set = [dest, min, max](std::string_view v) {
    T value{};
    if (!ParseNumber(v, &value) || value < min || value > max) {
      return false;
    }
    *dest = value;
    return true;
  };
  Flag flag = Value(spec, std::move(expect), set, std::move(help));
  if (*dest >= min && *dest <= max) {
    flag.default_text = std::to_string(*dest);
  }
  return flag;
}

template Flag Int<int>(std::string_view, int*, int, int, std::string);
template Flag Int<int64_t>(std::string_view, int64_t*, int64_t, int64_t, std::string);
template Flag Int<uint64_t>(std::string_view, uint64_t*, uint64_t, uint64_t,
                            std::string);

Flag Double(std::string_view spec, double* dest, double min, double max,
            std::string help, Bound min_bound, Bound max_bound) {
  const bool min_open = min_bound == Bound::kExclusive;
  const bool max_open = max_bound == Bound::kExclusive;
  const std::string expect =
      std::isinf(max)
          ? (min_open ? "a finite number > " : "a finite number >= ") + FormatNumber(min)
          : (min_open ? "a number in (" : "a number in [") + FormatNumber(min) + ", " +
                FormatNumber(max) + (max_open ? ")" : "]");
  const auto accepts = [=](double value) {
    return (min_open ? value > min : value >= min) &&
           (max_open ? value < max : value <= max);
  };
  const auto set = [dest, accepts](std::string_view v) {
    double value = 0.0;
    if (!serde::ParseDouble(v, &value) || !accepts(value)) {
      return false;
    }
    *dest = value;
    return true;
  };
  Flag flag = Value(spec, expect, set, std::move(help));
  if (accepts(*dest)) {
    flag.default_text = FormatNumber(*dest);
  }
  return flag;
}

Flag String(std::string_view spec, std::string* dest, std::string help) {
  const auto set = [dest](std::string_view v) {
    *dest = v;
    return !v.empty();
  };
  Flag flag = Value(spec, "", set, std::move(help));
  flag.default_text = *dest;
  return flag;
}

Flag Switch(std::string_view name, bool* dest, std::string help) {
  const auto set = [dest](std::string_view) {
    *dest = true;
    return true;
  };
  return Value(name, "no value", set, std::move(help));
}

Flag Positional(std::string_view metavar, std::vector<std::string>* dest,
                std::string help) {
  const auto set = [dest](std::string_view v) {
    dest->emplace_back(v);
    return true;
  };
  Flag flag = Value(metavar, "", set, std::move(help));
  flag.positional = true;
  flag.repeatable = true;
  return flag;
}

Parser::Parser(std::string prog, std::string synopsis, std::vector<Flag> table)
    : prog_(std::move(prog)), synopsis_(std::move(synopsis)), table_(std::move(table)) {}

void Parser::Parse(int argc, const char* const* argv) const {
  std::vector<bool> seen(table_.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::fputs(Usage().c_str(), stdout);
      std::exit(0);
    }
    const bool positional = arg.empty() || arg[0] != '-';
    const size_t eq = positional ? std::string_view::npos : arg.find('=');
    const bool has_value = eq != std::string_view::npos;
    const std::string_view value = positional ? arg : has_value ? arg.substr(eq + 1) : "";
    const auto it = std::find_if(table_.begin(), table_.end(), [&](const Flag& flag) {
      return positional ? flag.positional
                        : !flag.positional && flag.name == arg.substr(0, eq);
    });
    if (it == table_.end()) {
      Fail((positional ? "unexpected argument '" : "unknown flag '") + std::string(arg) +
           "'");
    }
    const size_t k = static_cast<size_t>(it - table_.begin());
    if (seen[k] && !it->repeatable) {
      Fail(it->name + ": given more than once");
    }
    seen[k] = true;
    if ((!positional && it->metavar.empty() && has_value) || !it->set(value)) {
      Fail(it->name + ": expected " + (it->expect.empty() ? "a value" : it->expect) +
           ", got '" + std::string(value) + "'");
    }
  }
  for (size_t k = 0; k < table_.size(); ++k) {
    if (table_[k].required && !seen[k]) {
      Fail("missing " + table_[k].label());
    }
  }
}

void Parser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
  std::fputs(Usage().c_str(), stdout);
  std::exit(2);
}

// One entry per flag: its label, its help, then a line with the accepted values
// and the default, every help line starting in one column.
std::string Parser::Usage() const {
  size_t width = 6;  // "--help"
  for (const Flag& flag : table_) {
    width = std::max(width, flag.label().size());
  }
  std::string text = "usage: " + prog_ + " " + synopsis_ + "\n";
  const auto entry = [&](const std::string& label, const std::string& help) {
    text += "  " + label + std::string(width + 2 - label.size(), ' ');
    for (const char c : help) {
      text += c == '\n' ? "\n" + std::string(width + 4, ' ') : std::string(1, c);
    }
    text += '\n';
  };
  for (const Flag& flag : table_) {
    std::string accepts = flag.metavar.empty() ? "" : flag.expect;
    if (!flag.default_text.empty() && !flag.required) {
      accepts += (accepts.empty() ? "default " : "; default ") + flag.default_text;
    }
    entry(flag.label(), accepts.empty() ? flag.help : flag.help + "\n(" + accepts + ")");
  }
  entry("--help", "print this help and exit");
  return text;
}

}  // namespace alert::flags

// One command line for every example and bench binary.  A binary declares
// its flags and positionals as rows of {name, value kind, range, help}, and
// Table::parse turns argv into those values:
//
//  * a token that starts with "--" is a flag; any other token ("-1" too) is
//    the next positional, that is, the next row whose name has no "--";
//  * a valued flag takes "--flag=V" and "--flag V"; the second spelling
//    never takes a token that starts with "--" as its value;
//  * an error names the flag or positional and quotes the offending token,
//    and fail() prints it with the usage the rows generate, then exits 2.
//
// It is a loop over the rows rather than getopt_long, which would also take
// any unique prefix of a flag (--rep for --reps), read "-1" as a short
// option, and print messages of its own.
#pragma once

#include <algorithm>
#include <cerrno>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mg::examples::cli {

/// One flag or positional; the kind functions below build it.
struct Row {
  std::string_view name;  ///< "--flag", or a positional's name
  std::string value;      ///< placeholder of the value in the usage; "" for a switch
  std::string want;       ///< the accepted values, quoted back on a bad one
  std::string_view help;
  std::function<bool(const std::string&)> set;  ///< parses, range-checks, stores
};

inline bool parse_integer(const std::string& s, long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0' && errno == 0;
}

/// Free text: a path, a spec, a label.
inline Row text(std::string_view name, std::string& out, std::string value,
                std::string_view help) {
  return {name, std::move(value), "", help, [&out](const std::string& v) {
            out = v;
            return true;
          }};
}

/// A switch: present or absent, never a value.
inline Row toggle(std::string_view name, bool& out, std::string_view help) {
  return {name, "", "no value", help, [&out](const std::string& v) {
            if (v.empty()) out = true;
            return v.empty();
          }};
}

/// Inclusive bounds of a count; {1} means "at least one".
struct Range {
  long long lo = 0;
  long long hi = std::numeric_limits<long long>::max();
};

/// The levels of a root-2 solve: Grid2D holds at most 2^39 cells per axis.
inline constexpr Range kRoot2Levels{0, 37};

/// A non-negative integer in `range` (and in what `T` holds).
template <std::integral T>
Row count(std::string_view name, T& out, Range range, std::string_view help) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  const long long hi = std::in_range<long long>(std::numeric_limits<T>::max())
                           ? std::min<long long>(range.hi, std::numeric_limits<T>::max())
                           : range.hi;
  std::string want = hi == kMax ? ">= " + std::to_string(range.lo)
                                : std::to_string(range.lo) + ".." + std::to_string(hi);
  return {name, "N", std::move(want), help, [&out, lo = range.lo, hi](const std::string& v) {
            long long n = 0;
            if (!parse_integer(v, n) || n < lo || n > hi) return false;
            out = static_cast<T>(n);
            return true;
          }};
}

/// Any integer `T` holds, negative ones too.
template <std::integral T>
Row integer(std::string_view name, T& out, std::string_view help) {
  return {name, "N", "an integer", help, [&out](const std::string& v) {
            long long n = 0;
            if (!parse_integer(v, n) || !std::in_range<T>(n)) return false;
            out = static_cast<T>(n);
            return true;
          }};
}

enum class Reals { Any, Positive };

/// A real number; Positive also rejects nan.
inline Row real(std::string_view name, double& out, Reals range, std::string_view help) {
  const bool positive = range == Reals::Positive;
  return {name, "X", positive ? "> 0" : "a number", help, [&out, positive](const std::string& v) {
            char* end = nullptr;
            const double x = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || (positive && !(x > 0.0))) return false;
            out = x;
            return true;
          }};
}

/// One word of `words`.
inline Row choice(std::string_view name, std::string& out, std::vector<std::string_view> words,
                  std::string_view help) {
  std::string joined;
  for (const std::string_view w : words) joined.append(joined.empty() ? "" : "|").append(w);
  return {name, joined, joined, help, [&out, words](const std::string& v) {
            if (std::find(words.begin(), words.end(), v) == words.end()) return false;
            out = v;
            return true;
          }};
}

/// HOST:PORT with a port in 1..65535; an empty HOST leaves `host` as it is.
inline Row host_port(std::string_view name, std::string& host, std::uint16_t& port,
                     std::string_view help) {
  return {name, "HOST:PORT", "HOST:PORT", help, [&host, &port](const std::string& v) {
            const std::size_t colon = v.rfind(':');
            long long p = 0;
            if (colon == std::string::npos || !parse_integer(v.substr(colon + 1), p) || p < 1 ||
                p > 65535) {
              return false;
            }
            if (colon > 0) host = v.substr(0, colon);
            port = static_cast<std::uint16_t>(p);
            return true;
          }};
}

class Table {
 public:
  Table(std::string_view program, std::vector<Row> rows)
      : program_(program), rows_(std::move(rows)), given_(rows_.size(), false) {}

  /// Parses argv[1..] into the rows' targets; returns "" or the first error.
  std::string parse(int argc, const char* const* argv) {
    std::size_t positionals = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value = arg;
      const Row* row = nullptr;
      if (!arg.starts_with("--")) {
        row = positional(positionals++);
        if (row == nullptr) return "unexpected extra argument '" + arg + "'";
      } else {
        const std::size_t eq = arg.find('=');
        row = named(arg.substr(0, eq));
        if (row == nullptr) return "unknown flag '" + arg + "'";
        if (eq != std::string::npos) {
          value = arg.substr(eq + 1);
        } else if (row->value.empty()) {
          value.clear();
        } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
          value = argv[++i];
        } else {
          return "missing value after '" + arg + "'";
        }
      }
      if (!row->set(value)) {
        return "bad " + std::string(row->name) + " '" + value + "' (want " + row->want + ")";
      }
      given_[static_cast<std::size_t>(row - rows_.data())] = true;
    }
    return "";
  }

  /// parse(), then fail() on an error.
  void parse_or_exit(int argc, const char* const* argv) {
    if (const std::string error = parse(argc, argv); !error.empty()) fail(error);
  }

  /// Whether argv held the row called `name`.
  bool given(std::string_view name) const {
    const Row* row = named(name);
    return row != nullptr && given_[static_cast<std::size_t>(row - rows_.data())];
  }

  std::string usage() const {
    std::string head = "usage: " + std::string(program_);
    std::string lines;
    bool flags = false;
    for (const Row& r : rows_) {
      const bool flag = r.name.starts_with("--");
      if (!flag) head += " [" + std::string(r.name) + "]";
      flags = flags || flag;
      std::string line = "  " + std::string(r.name);
      if (flag && !r.value.empty()) line += "=" + r.value;
      line.resize(std::max<std::size_t>(line.size() + 2, 28), ' ');
      line += r.help;
      if (!r.value.empty() && !r.want.empty() && r.want != r.value) line += " (" + r.want + ")";
      lines += line + '\n';
    }
    return head + (flags ? " [flags]\n" : "\n") + lines;
  }

  /// Prints "<program>: <error>" and the usage to stderr, then exits 2.
  [[noreturn]] void fail(const std::string& error) const {
    std::fprintf(stderr, "%s: %s\n%s", std::string(program_).c_str(), error.c_str(),
                 usage().c_str());
    std::exit(2);
  }

 private:
  const Row* named(std::string_view name) const {
    for (const Row& r : rows_) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

  /// The k-th positional row.
  const Row* positional(std::size_t k) const {
    for (const Row& r : rows_) {
      if (!r.name.starts_with("--") && k-- == 0) return &r;
    }
    return nullptr;
  }

  std::string_view program_;
  std::vector<Row> rows_;
  std::vector<bool> given_;
};

}  // namespace mg::examples::cli

// Command-line parsing for sparse_grid_solver, extracted so tests can parse
// argv vectors without running a solve (tests include this header directly).
//
// Parsing is strict where the old inline loop was forgiving:
//  * unknown --flags are errors (previously swallowed as positionals);
//  * numeric arguments must actually be numbers;
//  * worker mode (--connect) rejects master-side flags — a worker neither
//    forks a fleet nor binds a listener, so "--connect ... --workers=8"
//    was silently ignoring the fleet the user asked for;
//  * the tcp-only flags (--workers / --listen / --net-faults) without
//    --backend=tcp are errors instead of silently doing nothing, and so is
//    --faults with it (remote workers take frame faults, --net-faults);
//  * --workers=0 (or garbage) is an error: a tcp master with zero forked
//    workers and nobody joining just hangs at the worker barrier.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

namespace mg::examples {

/// Splits "HOST:PORT" (host may be empty to keep the loopback default).
inline bool parse_host_port(const std::string& spec, std::string& host, std::uint16_t& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  const char* digits = spec.c_str() + colon + 1;
  char* end = nullptr;
  const long p = std::strtol(digits, &end, 10);
  if (end == digits || *end != '\0' || p <= 0 || p > 65535) return false;
  if (colon > 0) host = spec.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

struct SolverCli {
  // Solve parameters (the paper's argv triple).
  int root = 2;
  int level = 3;
  double le_tol = 1e-3;

  std::string report_path;
  std::string trace_path;  ///< Chrome trace_event JSON of the run's spans
  std::string fault_spec;
  std::string net_fault_spec;
  std::string churn_spec;  ///< elastic-fleet churn schedule (fleet::parse_churn_spec)
  std::string backend = "threads";

  // TCP master side.
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral
  std::size_t tcp_workers = 4;
  /// Per-channel transport pipeline window (DESIGN.md §15); 0 = endpoint
  /// default.  Bit-identical at any depth — only wire latency moves.
  std::uint32_t pipeline_depth = 0;

  // TCP worker side.
  bool worker_mode = false;  ///< --connect given
  std::string connect_host = "127.0.0.1";
  std::uint16_t connect_port = 0;

  bool ok = true;
  std::string error;  ///< set when !ok; usage-style one-liner
};

namespace cli_detail {

/// True when `arg` begins with `prefix`; `value` then points past it.
inline bool starts_with(const char* arg, std::string_view prefix, const char*& value) {
  if (!std::string_view(arg).starts_with(prefix)) return false;
  value = arg + prefix.size();
  return true;
}

inline bool parse_long(const char* s, long& out) {
  char* end = nullptr;
  out = std::strtol(s, &end, 10);
  return end != s && *end == '\0';
}

inline bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

/// A non-negative integer that fits `T`, as a count or a duration must be.
template <typename T>
bool parse_count(const char* s, T& out) {
  long n = 0;
  if (!parse_long(s, n) || n < 0 || !std::in_range<T>(n)) return false;
  out = static_cast<T>(n);
  return true;
}

/// A count of at least 1, as a worker, job or repetition count must be.
template <typename T>
bool parse_positive(const char* s, T& out) {
  T n{};
  if (!parse_count(s, n) || n == 0) return false;
  out = n;
  return true;
}

/// A sparse-grid level of the root-2 problem the simulated benches run:
/// 0..37, since Grid2D holds at most 2^39 cells per axis and a deeper level
/// would fail that precondition mid-run.
inline bool parse_root2_level(const char* s, int& out) {
  int n = 0;
  if (!parse_count(s, n) || n > 37) return false;
  out = n;
  return true;
}

/// True when argv[i] is `flag` and a value follows it (`--reps N`); `value`
/// then points at it and `i` has moved onto it.
inline bool flag_value(int argc, const char* const* argv, int& i, std::string_view flag,
                       const char*& value) {
  if (flag != argv[i] || i + 1 >= argc) return false;
  value = argv[++i];
  return true;
}

}  // namespace cli_detail

/// Parses argv (argv[0] is skipped).  On any violation the result has
/// ok=false and `error` explains which flag and why.
inline SolverCli parse_solver_cli(int argc, const char* const* argv) {
  using namespace cli_detail;
  SolverCli cli;
  bool workers_given = false;
  bool listen_given = false;
  bool backend_given = false;
  bool pipeline_given = false;

  const auto fail = [&cli](const std::string& message) -> SolverCli& {
    cli.ok = false;
    if (cli.error.empty()) cli.error = message;
    return cli;
  };

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (starts_with(arg, "--report=", v)) {
      cli.report_path = v;
    } else if (starts_with(arg, "--trace=", v)) {
      cli.trace_path = v;
    } else if (starts_with(arg, "--faults=", v)) {
      cli.fault_spec = v;
    } else if (starts_with(arg, "--net-faults=", v)) {
      cli.net_fault_spec = v;
    } else if (starts_with(arg, "--churn=", v)) {
      cli.churn_spec = v;
    } else if (starts_with(arg, "--backend=", v)) {
      cli.backend = v;
      backend_given = true;
      if (cli.backend != "threads" && cli.backend != "tcp") {
        return fail("unknown --backend '" + cli.backend + "' (want threads or tcp)");
      }
    } else if (starts_with(arg, "--pipeline=", v)) {
      pipeline_given = true;
      long n = 0;
      if (!parse_long(v, n) || n < 1 || n > 64) {
        return fail(std::string("bad --pipeline '") + v + "' (want 1..64)");
      }
      cli.pipeline_depth = static_cast<std::uint32_t>(n);
    } else if (starts_with(arg, "--workers=", v)) {
      workers_given = true;
      long n = 0;
      if (!parse_long(v, n) || n <= 0) {
        return fail(std::string("bad --workers '") + v +
                    "' (want a positive count; a tcp master with zero workers "
                    "would hang at the worker barrier)");
      }
      cli.tcp_workers = static_cast<std::size_t>(n);
    } else if (starts_with(arg, "--listen=", v)) {
      listen_given = true;
      if (!parse_host_port(v, cli.listen_host, cli.listen_port)) {
        return fail(std::string("bad --listen spec '") + v + "' (want HOST:PORT)");
      }
    } else if (starts_with(arg, "--connect=", v)) {
      cli.worker_mode = true;
      if (!parse_host_port(v, cli.connect_host, cli.connect_port)) {
        return fail(std::string("bad --connect spec '") + v + "' (want HOST:PORT)");
      }
    } else if (arg[0] == '-' && arg[1] == '-') {
      return fail(std::string("unknown flag '") + arg + "'");
    } else if (positional == 0) {
      long n = 0;
      if (!parse_long(arg, n)) return fail(std::string("bad root '") + arg + "'");
      cli.root = static_cast<int>(n);
      ++positional;
    } else if (positional == 1) {
      long n = 0;
      if (!parse_long(arg, n)) return fail(std::string("bad level '") + arg + "'");
      cli.level = static_cast<int>(n);
      ++positional;
    } else if (positional == 2) {
      if (!parse_double(arg, cli.le_tol)) return fail(std::string("bad le_tol '") + arg + "'");
      ++positional;
    } else {
      return fail(std::string("unexpected extra argument '") + arg + "'");
    }
  }

  if (cli.worker_mode) {
    // A worker serves someone else's solve: every master-side flag given
    // alongside --connect would be silently dead, so all are rejected.
    if (workers_given) return fail("--connect is worker mode; --workers is master-side");
    if (listen_given) return fail("--connect is worker mode; --listen is master-side");
    if (backend_given) return fail("--connect is worker mode; --backend is master-side");
    if (!cli.net_fault_spec.empty()) {
      return fail("--connect is worker mode; --net-faults is master-side");
    }
    if (!cli.fault_spec.empty()) {
      return fail("--connect is worker mode; --faults is master-side");
    }
    if (!cli.churn_spec.empty()) {
      // Churn is a fleet-level schedule driven by the master; a lone worker
      // has no fleet to churn.
      return fail("--connect is worker mode; --churn is master-side");
    }
    if (!cli.report_path.empty()) {
      return fail("--connect is worker mode; --report is master-side");
    }
    if (!cli.trace_path.empty()) {
      // Worker spans reach the master's trace through the telemetry channel;
      // a worker-local trace file would duplicate them on the wrong timeline.
      return fail("--connect is worker mode; --trace is master-side");
    }
    if (pipeline_given) {
      // The pipeline window lives on the master's endpoint; workers just
      // answer whatever arrives.
      return fail("--connect is worker mode; --pipeline is master-side");
    }
  } else if (cli.backend != "tcp") {
    if (workers_given) return fail("--workers requires --backend=tcp");
    if (listen_given) return fail("--listen requires --backend=tcp");
    if (pipeline_given) return fail("--pipeline requires --backend=tcp");
    if (!cli.net_fault_spec.empty()) return fail("--net-faults requires --backend=tcp");
  } else if (!cli.fault_spec.empty()) {
    // Worker crash/hang/corrupt faults are injected into the threads pool
    // only; a tcp run would print "fault injection on" and inject nothing.
    return fail("--faults is for --backend=threads; use --net-faults for tcp frame faults");
  }

  return cli;
}

}  // namespace mg::examples

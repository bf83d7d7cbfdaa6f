// The command line of sparse_grid_solver, kept apart so tests can parse argv
// vectors without running a solve (tests include this header directly).
//
// Besides each row's range, parse_solver_cli checks the rules that tie the
// flags together:
//  * worker mode (--connect) rejects every master-side flag: a worker
//    neither forks a fleet nor binds a listener, so each would be dead;
//  * the tcp-only flags need --backend=tcp, and --faults needs the threads
//    backend (remote workers take frame faults, --net-faults);
//  * root + level <= 39, since Grid2D holds at most 2^39 cells per axis.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "cli.hpp"

namespace mg::examples {

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
  std::string error;  ///< set when !ok; names the flag and why
};

/// The rows of sparse_grid_solver's command line, filling `c`.
inline cli::Table solver_cli_table(SolverCli& c) {
  return cli::Table(
      "sparse_grid_solver",
      {cli::count("root", c.root, {1, 39}, "the coarsest grid has 2^root cells per axis"),
       cli::count("level", c.level, {0, 39}, "sparse-grid level, at most 39 - root"),
       cli::real("le_tol", c.le_tol, cli::Reals::Positive, "ROS2 local error tolerance"),
       cli::text("--report", c.report_path, "PATH", "write a JSON run report"),
       cli::text("--trace", c.trace_path, "PATH", "write a Chrome trace of the run's spans"),
       cli::text("--faults", c.fault_spec, "SPEC", "seeded worker faults (threads backend)"),
       cli::text("--churn", c.churn_spec, "SPEC", "seeded fleet joins, leaves and crashes"),
       cli::choice("--backend", c.backend, {"threads", "tcp"}, "substrate of the concurrent solve"),
       cli::count("--workers", c.tcp_workers, {1}, "tcp worker processes to fork"),
       cli::host_port("--listen", c.listen_host, c.listen_port, "tcp master address"),
       cli::count("--pipeline", c.pipeline_depth, {1, 64}, "tcp work units in flight per channel"),
       cli::text("--net-faults", c.net_fault_spec, "SPEC", "seeded tcp frame faults"),
       cli::host_port("--connect", c.connect_host, c.connect_port, "join a master as a worker")});
}

/// The rules between flags: "" when the parse in `table` keeps them.
inline std::string solver_cli_rules(const SolverCli& c, const cli::Table& table) {
  const auto first_given = [&table](std::initializer_list<const char*> flags) -> std::string {
    for (const char* f : flags) {
      if (table.given(f)) return f;
    }
    return "";
  };
  if (c.worker_mode) {
    const std::string f = first_given({"--workers", "--listen", "--backend", "--net-faults",
                                       "--faults", "--churn", "--report", "--trace",
                                       "--pipeline"});
    if (!f.empty()) return "--connect is worker mode; " + f + " is master-side";
  } else if (c.backend != "tcp") {
    const std::string f = first_given({"--workers", "--listen", "--pipeline", "--net-faults"});
    if (!f.empty()) return f + " requires --backend=tcp";
  } else if (table.given("--faults")) {
    return "--faults is for --backend=threads; use --net-faults for tcp frame faults";
  }
  if (c.root + c.level > 39) {
    return "bad level '" + std::to_string(c.level) + "' (want at most 39 - root)";
  }
  return "";
}

/// Parses argv (argv[0] is skipped).  On any violation the result has
/// ok=false and `error` names the flag and why.
inline SolverCli parse_solver_cli(int argc, const char* const* argv) {
  SolverCli c;
  cli::Table table = solver_cli_table(c);
  c.error = table.parse(argc, argv);
  c.worker_mode = table.given("--connect");
  if (c.error.empty()) c.error = solver_cli_rules(c, table);
  c.ok = c.error.empty();
  return c;
}

}  // namespace mg::examples

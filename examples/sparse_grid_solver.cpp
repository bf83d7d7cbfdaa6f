// The modernized application end-to-end: solves the time-dependent
// advection-diffusion problem with the sparse-grid combination technique,
// sequentially (the §3 legacy program) and concurrently (the §5
// restructured master/worker version), verifies the two agree bit-exactly
// (the §6 claim), and reports accuracy against the analytic solution.
//
// The positionals mirror the paper's command line (§3: root, level,
// le_tol); solver_cli.hpp holds the rows, and a bad argument prints them.
//
// --report=PATH additionally writes a JSON run report: both solves' wall
// times, the per-grid records, the bit-exactness diff, the accuracy numbers,
// and a snapshot of the metrics registry (src/obs/report.hpp).
//
// --trace=PATH writes a Chrome trace_event JSON of the run's spans (load in
// about:tracing / Perfetto).  With --backend=tcp this is the *merged*
// cross-process trace: worker subsolve spans ship back on the telemetry
// channel, get re-timed onto the master's clock, and nest under the per-
// channel dispatch spans.
//
// --faults=SPEC (e.g. --faults=seed=7,crash=0.3,hang=0.1,corrupt=0.05) runs
// the concurrent solve under seeded fault injection with the fault-tolerant
// protocol engaged: crashed/hung workers are respawned and their grids
// re-dispatched, and the report gains a "faults" section recording every
// injection, retry and abandonment.  The solve must still be bit-identical
// to the sequential program.  Threads backend only; --backend=tcp takes
// frame faults through --net-faults.
//
// --churn=SPEC (e.g. --churn=seed=7,joins=2,leaves=1,crashes=1,spread=0.5)
// replays a seeded spot-instance schedule against the worker fleet while the
// concurrent solve runs.  On the threads backend the events drive the
// supervised worker pool (Leave re-leases the victim's grid immediately, Crash
// routes through the normal retry path); on the tcp backend late-join worker
// processes are forked per Join event and accepted mid-run, and Leave/Crash
// events close the busiest channel, whose round trips fail back to the
// worker pool for re-dispatch.  Either way the solve must still be
// bit-identical to the sequential program, and the report gains a "fleet"
// section (joins/leaves/crashes/duplicates); the re-leased units show up as
// fault-ledger retries.
//
// --backend=tcp runs the concurrent solve over the network substrate: the
// master binds a TCP listener (--listen=HOST:PORT, default loopback
// ephemeral), forks --workers=N subsolve worker processes (default 4), and
// every work unit travels through core/marshal frames instead of in-process
// units.  --connect=HOST:PORT instead joins an already-running master as one
// worker process.  --net-faults=SPEC (net_drop / net_slow / net_truncate /
// net_delay_ms, plus seed) injects seeded frame-level faults into the
// master's send path; the supervised pool retries through them and
// the solve must *still* be bit-identical to the sequential program.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_solver.hpp"
#include "core/remote_worker.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "net/remote.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "solver_cli.hpp"
#include "transport/seq_solver.hpp"

namespace {

void append_solve_json(mg::obs::JsonWriter& w, const mg::transport::SolveResult& solve) {
  w.begin_object();
  w.kv("total_s", solve.total_seconds);
  w.kv("subsolve_s", solve.subsolve_seconds);
  w.kv("prolongation_s", solve.prolongation_seconds);
  w.key("grids").begin_array();
  for (const auto& r : solve.records) {
    w.begin_object();
    w.kv("grid", r.grid.name()).kv("coefficient", r.coefficient);
    w.kv("steps_accepted", static_cast<std::uint64_t>(r.stats.accepted));
    w.kv("steps_rejected", static_cast<std::uint64_t>(r.stats.rejected));
    w.kv("stage_solves", static_cast<std::uint64_t>(r.stats.stage_solves));
    w.kv("wall_s", r.elapsed_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mg;

  const examples::SolverCli cli = examples::parse_solver_cli(argc, argv);
  examples::SolverCli unused;
  const examples::cli::Table rows = examples::solver_cli_table(unused);
  if (!cli.ok) rows.fail(cli.error);
  // The specs parse before any work, so a malformed one exits 2 as well.
  const auto parse_spec = [&rows](const char* flag, const std::string& spec, auto parse) {
    try {
      return parse(spec);
    } catch (const std::exception& e) {
      rows.fail(std::string("bad ") + flag + " '" + spec + "' (" + e.what() + ")");
    }
  };
  const fault::FaultPlanConfig faults =
      parse_spec("--faults", cli.fault_spec, fault::parse_fault_spec);
  const fault::FaultPlanConfig net_faults =
      parse_spec("--net-faults", cli.net_fault_spec, fault::parse_fault_spec);
  const fleet::ChurnPlanConfig churn_cfg =
      parse_spec("--churn", cli.churn_spec, fleet::parse_churn_spec);

  transport::ProgramConfig config;
  config.root = cli.root;
  config.level = cli.level;
  config.le_tol = cli.le_tol;
  const std::string& report_path = cli.report_path;

  // Worker mode: join a running master and serve subsolves until it is gone.
  if (cli.worker_mode) {
    return mw::run_subsolve_worker(cli.connect_host, cli.connect_port);
  }

  const bool tcp = cli.backend == "tcp";
  const bool churn_on = churn_cfg.any();
  const fleet::ChurnPlan churn_plan(churn_cfg);

  // Enable span recording up front so both solves (and, over tcp, the merged
  // worker telemetry) land in one trace.  Purely an observer: the solve's
  // numbers must be identical with or without it.
  if (!cli.trace_path.empty()) obs::enable_wall_clock(obs::tracer());

  // TCP master: bind first, fork the workers while this process is still
  // single-threaded, and only then (below) start the endpoint's event loop —
  // the kernel backlog holds the children's connects in the meantime.
  net::TcpListener listener;
  std::vector<int> worker_pids;
  if (tcp) {
    listener = net::TcpListener(cli.listen_host, cli.listen_port);
    std::fflush(stdout);  // forked children must not replay buffered output
    const std::string host = listener.host();
    const std::uint16_t port = listener.port();
    worker_pids = net::fork_worker_processes(cli.tcp_workers, [&listener, host, port] {
      // Children inherit the listening fd; keeping it open would hold the
      // port alive after the master closes it and strand every reconnect.
      listener.close();
      return mw::run_subsolve_worker(host, port);
    });
    // Churn joins: fork one late worker per Join event.  Each child sleeps
    // until its scheduled join time before connecting, so the endpoint
    // accepts it into the lease set mid-run.
    if (churn_on) {
      for (const auto& ev : churn_plan.events()) {
        if (ev.kind != fleet::ChurnEventKind::Join) continue;
        const double at = ev.at_seconds;
        const std::vector<int> late =
            net::fork_worker_processes(1, [&listener, host, port, at] {
              listener.close();
              std::this_thread::sleep_for(std::chrono::duration<double>(at));
              return mw::run_subsolve_worker(host, port);
            });
        worker_pids.insert(worker_pids.end(), late.begin(), late.end());
      }
    }
  }

  std::printf("sparse-grid transport solve: root=%d level=%d le_tol=%g\n", config.root,
              config.level, config.le_tol);
  if (tcp) {
    std::printf("backend: tcp (%s:%u, %zu forked workers)\n", listener.host().c_str(),
                static_cast<unsigned>(listener.port()), worker_pids.size());
  }
  std::printf("problem: %s\n\n", config.kernel.problem.describe().c_str());

  // --- the sequential program (§3) ---
  const transport::SolveResult seq = transport::solve_sequential(config);
  std::printf("sequential: %zu grids, %.3f s total (subsolve %.3f s, prolongation %.3f s)\n",
              seq.records.size(), seq.total_seconds, seq.subsolve_seconds,
              seq.prolongation_seconds);
  std::printf("%6s %-12s %6s %8s %9s\n", "coeff", "grid", "steps", "solves", "wall[s]");
  for (const auto& r : seq.records) {
    std::printf("%+6.0f %-12s %6zu %8zu %9.4f\n", r.coefficient, r.grid.name().c_str(),
                r.stats.accepted, r.stats.stage_solves, r.elapsed_seconds);
  }

  // --- the concurrent version (§5), optionally under fault injection ---
  mw::ConcurrentOptions options;
  if (!cli.fault_spec.empty()) {
    options.faults = faults;
    options.retry.task_deadline = std::chrono::milliseconds(2000);
    std::printf("\nfault injection on: seed=%llu crash=%.2f hang=%.2f corrupt=%.2f\n",
                static_cast<unsigned long long>(options.faults.seed), options.faults.crash,
                options.faults.hang, options.faults.corrupt);
  }

  std::unique_ptr<const fault::FaultPlan> net_plan;
  std::unique_ptr<net::RemoteEndpoint> endpoint;
  if (tcp) {
    net::RemoteEndpointConfig ep_config;
    if (cli.pipeline_depth > 0) ep_config.pipeline_depth = cli.pipeline_depth;
    if (!cli.net_fault_spec.empty()) {
      net_plan = std::make_unique<const fault::FaultPlan>(net_faults);
      ep_config.faults = net_plan.get();
      // Faulted frames must fail fast enough for the retry policy to matter.
      ep_config.round_trip_deadline = std::chrono::milliseconds(2000);
      const auto& nf = net_plan->config();
      std::printf("\nnet fault injection on: seed=%llu drop=%.2f slow=%.2f truncate=%.2f\n",
                  static_cast<unsigned long long>(nf.seed), nf.net_drop, nf.net_slow,
                  nf.net_truncate);
    }
    if (churn_on) {
      std::printf("\nchurn on (tcp fleet): seed=%llu joins=%zu leaves=%zu crashes=%zu "
                  "over [%g, %g)s\n",
                  static_cast<unsigned long long>(churn_cfg.seed), churn_cfg.joins,
                  churn_cfg.leaves, churn_cfg.crashes, churn_cfg.start_seconds,
                  churn_cfg.start_seconds + churn_cfg.spread_seconds);
    }
    endpoint = std::make_unique<net::RemoteEndpoint>(std::move(listener), ep_config);
    // The barrier waits for the prompt workers only; churn joiners connect
    // later, into a running solve.
    const std::size_t expected = worker_pids.empty() ? 1 : cli.tcp_workers;
    if (!endpoint->wait_for_workers(expected, std::chrono::milliseconds(15'000))) {
      std::fprintf(stderr, "timed out waiting for %zu tcp worker(s)\n", expected);
      return 3;
    }
    options.remote = endpoint.get();
  } else if (churn_on) {
    options.churn = churn_cfg;
    std::printf("\nchurn on (threads pool): seed=%llu joins=%zu leaves=%zu crashes=%zu "
                "over [%g, %g)s\n",
                static_cast<unsigned long long>(churn_cfg.seed), churn_cfg.joins,
                churn_cfg.leaves, churn_cfg.crashes, churn_cfg.start_seconds,
                churn_cfg.start_seconds + churn_cfg.spread_seconds);
  }

  // The spot-instance adversary: a thread replaying the plan's Leave/Crash
  // events against the endpoint while the solve runs.
  std::atomic<bool> churn_stop{false};
  std::thread churn_thread;
  if (endpoint && churn_on) {
    net::RemoteEndpoint* ep = endpoint.get();
    const fleet::ChurnPlan* plan = &churn_plan;
    churn_thread = std::thread([ep, plan, &churn_stop] {
      net::drive_churn(*ep, *plan, churn_stop);
    });
  }

  const mw::ConcurrentResult conc = mw::solve_concurrent(config, options);
  if (churn_thread.joinable()) {
    churn_stop.store(true, std::memory_order_release);
    churn_thread.join();
  }
  std::printf("\nconcurrent: %zu workers in %zu pool(s), %.3f s wall\n",
              conc.protocol.workers_created, conc.protocol.pools_created,
              conc.solve.total_seconds);
  if (conc.protocol.faults.any()) {
    const auto& f = conc.protocol.faults;
    std::printf("faults: %zu crash / %zu hang / %zu corrupt injected; "
                "%zu crash events, %zu timeouts, %zu retries, %zu abandoned%s\n",
                f.crashes_injected, f.hangs_injected, f.corruptions_injected, f.crash_events,
                f.timeouts, f.retries, f.abandoned,
                f.degraded ? " (pool degraded)" : "");
  }

  // One fleet ledger across both substrates: the threads pool accounts in
  // the protocol stats, the tcp endpoint in its own counters.
  fleet::FleetCounters fleet = conc.protocol.fleet;
  if (endpoint) fleet += endpoint->counters().fleet();
  if (fleet.any()) {
    std::printf("fleet: %zu joins, %zu leaves, %zu crashes, %zu duplicates discarded\n",
                fleet.joins, fleet.leaves, fleet.crashes, fleet.duplicates);
  }

  if (endpoint) {
    const net::RemoteCounters nc = endpoint->counters();
    std::printf("net: %llu frames out / %llu in, %llu bytes out / %llu in, "
                "%llu reconnects, %llu trips ok / %llu failed\n",
                static_cast<unsigned long long>(nc.frames_sent),
                static_cast<unsigned long long>(nc.frames_received),
                static_cast<unsigned long long>(nc.bytes_sent),
                static_cast<unsigned long long>(nc.bytes_received),
                static_cast<unsigned long long>(nc.reconnects),
                static_cast<unsigned long long>(nc.round_trips_ok),
                static_cast<unsigned long long>(nc.round_trips_failed));
    endpoint->shutdown();
    const int worker_rc = net::wait_worker_processes(worker_pids);
    if (worker_rc != 0) std::printf("warning: tcp worker exit status %d\n", worker_rc);
  }

  const double diff = conc.solve.combined.max_diff(seq.combined);
  std::printf("max |concurrent - sequential| = %g  (%s)\n", diff,
              diff == 0.0 ? "exactly the same, as §6 requires" : "MISMATCH");

  // --- accuracy of the combined sparse-grid solution ---
  const auto& p = config.kernel.problem;
  const double t1 = config.kernel.t1;
  const double max_err =
      seq.combined.max_error([&](double x, double y) { return p.exact(x, y, t1); });
  const double l2_err =
      seq.combined.l2_error([&](double x, double y) { return p.exact(x, y, t1); });
  std::printf("\ncombined solution vs analytic at t=%.2f: max error %.3e, L2 error %.3e\n", t1,
              max_err, l2_err);

  if (!cli.trace_path.empty()) {
    if (!obs::write_text_file(cli.trace_path, obs::tracer().chrome_trace_json())) {
      std::fprintf(stderr, "cannot write trace to %s\n", cli.trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu spans)\n", cli.trace_path.c_str(),
                obs::tracer().size());
  }

  if (!report_path.empty()) {
    obs::RunReport report("sparse_grid_solver");
    report.config().begin_object();
    report.config().kv("root", config.root).kv("level", config.level);
    report.config().kv("le_tol", config.le_tol);
    report.config().end_object();
    report.derived().begin_object();
    report.derived().key("sequential");
    append_solve_json(report.derived(), seq);
    report.derived().key("concurrent");
    append_solve_json(report.derived(), conc.solve);
    report.derived().key("protocol").begin_object();
    report.derived().kv("pools_created", static_cast<std::uint64_t>(conc.protocol.pools_created));
    report.derived().kv("workers_created",
                        static_cast<std::uint64_t>(conc.protocol.workers_created));
    report.derived().kv("rendezvous_wait_s", conc.protocol.rendezvous_wait_seconds);
    report.derived().end_object();
    if (conc.protocol.faults.any()) {
      fault::fault_counters_to_json(report.faults(), conc.protocol.faults);
    }
    if (fleet.any()) {
      report.derived().key("fleet");
      fleet::fleet_counters_to_json(report.derived(), fleet);
    }
    report.derived().kv("max_diff_concurrent_vs_sequential", diff);
    report.derived().kv("bit_exact", diff == 0.0);
    report.derived().kv("max_error_vs_analytic", max_err);
    report.derived().kv("l2_error_vs_analytic", l2_err);
    report.derived().end_object();
    if (!report.write(report_path)) return 1;
    std::printf("report written to %s\n", report_path.c_str());
  }

  return diff == 0.0 ? 0 : 1;
}

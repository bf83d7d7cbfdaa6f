// Ablation studies for the design choices the paper calls out.
//
//  A. Pool structure      — one pool over all grids (what Figure 1 implies)
//                           vs one pool per lm family (§4.2's "more
//                           demanding master" that raises create_pool again).
//  B. Perpetual tasks     — MLINK {perpetual} on/off (§6): reuse of emptied
//                           task instances vs forking a fresh one each time.
//  C. Cluster homogeneity — the paper's 24/5/3 MHz mix vs all-1200.
//  D. Network speed       — 10 / 100 / 1000 Mbps.
//  E. Data path           — master passes all data (paper) vs the §4.1
//                           "I/O workers" alternative where workers access
//                           the global data structure directly.  Run with
//                           the REAL threaded runtime at a small level, and
//                           checked for identical numerical results.
//  F. Stage solver        — banded LU vs BiCGSTAB+ILU(0) in the real
//                           subsolve kernel.
//  G. Advection scheme    — central (2nd order) vs upwind (1st order)
//                           accuracy against the analytic solution.
// --report=PATH captures every section's numbers plus the metrics-registry
// snapshot (the real-runtime sections E-G also exercise the wall-clock
// instrumentation).
#include <cstdio>
#include <string>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "core/concurrent_solver.hpp"
#include "examples/cli.hpp"
#include "obs/report.hpp"
#include "support/stopwatch.hpp"
#include "transport/seq_solver.hpp"

namespace {

using namespace mg;

/// Collects one {"section": ..., "entries": [...]} object per ablation when
/// a --report path was given; null rep -> sections print only.
struct ReportSink {
  obs::JsonWriter* rep = nullptr;

  void begin_section(const char* name) {
    if (rep == nullptr) return;
    rep->begin_object();
    rep->kv("section", name);
    rep->key("entries").begin_array();
  }
  void end_section() {
    if (rep == nullptr) return;
    rep->end_array();
    rep->end_object();
  }
  obs::JsonWriter* entries() { return rep; }
};

void ablation_pool_structure(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("pool_structure");
  std::printf("\n--- A. pool structure (simulated, level 12, tol 1e-3) ---\n");
  for (bool per_family : {false, true}) {
    cluster::SimConfig config;
    config.pool_per_family = per_family;
    const auto row = cluster::simulate_table_row(2, 12, 1e-3, cost, config);
    std::printf("  %-22s ct = %7.2f s, m = %4.1f, su = %4.1f\n",
                per_family ? "pool per lm family" : "single pool (paper)", row.ct, row.m, row.su);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", per_family ? "pool_per_family" : "single_pool");
      w->kv("ct", row.ct).kv("m", row.m).kv("su", row.su);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_perpetual(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("perpetual_tasks");
  std::printf("\n--- B. perpetual task instances (simulated, level 8, tol 1e-3) ---\n");
  for (bool perpetual : {true, false}) {
    cluster::SimConfig config;
    config.perpetual_tasks = perpetual;
    const auto run = cluster::simulate_run(2, 8, 1e-3, cost, config, config.seed);
    std::printf("  perpetual=%-5s ct = %6.2f s, tasks forked = %2zu, peak machines = %2d\n",
                perpetual ? "on" : "off", run.concurrent_seconds, run.tasks_spawned,
                run.peak_machines);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", perpetual ? "perpetual_on" : "perpetual_off");
      w->kv("ct", run.concurrent_seconds);
      w->kv("tasks_spawned", static_cast<std::uint64_t>(run.tasks_spawned));
      w->kv("peak_machines", run.peak_machines);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_cluster_mix(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("cluster_mix");
  std::printf("\n--- C. cluster composition (simulated, level 15, tol 1e-3) ---\n");
  {
    cluster::SimConfig config;
    const auto row = cluster::simulate_table_row(2, 15, 1e-3, cost, config);
    std::printf("  paper mix (24x1200+5x1400+3x1466)  ct = %7.2f s, su = %4.1f\n", row.ct, row.su);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", "paper_mix").kv("ct", row.ct).kv("su", row.su);
      w->end_object();
    }
  }
  {
    cluster::SimConfig config;
    config.cluster = cluster::ClusterSpec::homogeneous(32, 1200.0);
    const auto row = cluster::simulate_table_row(2, 15, 1e-3, cost, config);
    std::printf("  homogeneous 32x1200               ct = %7.2f s, su = %4.1f\n", row.ct, row.su);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", "homogeneous_32x1200").kv("ct", row.ct).kv("su", row.su);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_network(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("network_bandwidth");
  std::printf("\n--- D. network bandwidth (simulated, level 15, tol 1e-3) ---\n");
  for (double mbps : {10.0, 100.0, 1000.0}) {
    cluster::SimConfig config;
    config.network.bandwidth_bps = mbps * 1e6;
    const auto row = cluster::simulate_table_row(2, 15, 1e-3, cost, config);
    std::printf("  %6.0f Mbps   ct = %7.2f s, su = %4.1f\n", mbps, row.ct, row.su);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("mbps", mbps).kv("ct", row.ct).kv("su", row.su);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_background_jobs(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("background_jobs");
  std::printf("\n--- D2. background jobs on the cluster (simulated, level 15, tol 1e-3) ---\n");
  for (double p : {0.0, 0.2, 0.5}) {
    cluster::SimConfig config;
    config.background_job_probability = p;
    config.background_slowdown = 2.0;
    const auto row = cluster::simulate_table_row(2, 15, 1e-3, cost, config);
    std::printf("  P(background job) = %.1f   ct = %7.2f s, su = %4.1f\n", p, row.ct, row.su);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("probability", p).kv("ct", row.ct).kv("su", row.su);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_fault_tolerance(const cluster::AthlonCostModel& cost, ReportSink& sink) {
  sink.begin_section("fault_tolerance");
  std::printf("\n--- D3. host crashes + retry (simulated, level 15, tol 1e-3) ---\n");
  for (double p : {0.0, 0.05, 0.15, 0.30}) {
    cluster::SimConfig config;
    config.faults.host_crash = p;
    config.faults.net_drop = p / 3;
    const auto run = cluster::simulate_run(2, 15, 1e-3, cost, config, config.faults.seed);
    const double su = run.concurrent_seconds > 0 ? run.sequential_seconds / run.concurrent_seconds
                                                 : 0.0;
    std::printf(
        "  P(host crash) = %.2f   ct = %7.2f s, su = %4.1f   "
        "(%zu crashes, %zu drops, %zu retries, %zu abandoned)\n",
        p, run.concurrent_seconds, su, run.faults.host_crashes_injected,
        run.faults.net_drops_injected, run.faults.retries, run.faults.abandoned);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("probability", p).kv("ct", run.concurrent_seconds).kv("su", su);
      w->kv("host_crashes", static_cast<std::uint64_t>(run.faults.host_crashes_injected));
      w->kv("net_drops", static_cast<std::uint64_t>(run.faults.net_drops_injected));
      w->kv("retries", static_cast<std::uint64_t>(run.faults.retries));
      w->kv("abandoned", static_cast<std::uint64_t>(run.faults.abandoned));
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_data_path(ReportSink& sink) {
  sink.begin_section("data_path");
  std::printf("\n--- E. data path (real threaded runtime, root 2, level 4, tol 1e-3) ---\n");
  transport::ProgramConfig program;
  program.root = 2;
  program.level = 4;
  program.le_tol = 1e-3;
  const auto seq = transport::solve_sequential(program);
  for (auto path : {mw::DataPath::ThroughMaster, mw::DataPath::SharedGlobal}) {
    mw::ConcurrentOptions options;
    options.data_path = path;
    support::Stopwatch sw;
    const auto conc = mw::solve_concurrent(program, options);
    const double elapsed = sw.elapsed_seconds();
    const double diff = conc.solve.combined.max_diff(seq.combined);
    std::printf("  %-15s wall = %6.3f s, max |diff vs sequential| = %g\n", to_string(path),
                elapsed, diff);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", to_string(path)).kv("wall_s", elapsed).kv("max_diff", diff);
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_parallel_bundling(ReportSink& sink) {
  sink.begin_section("mlink_bundling");
  // §6: raising the MLINK load bundles all workers into the startup task
  // ("the application executes in parallel (i.e., not distributed)").  On
  // this machine both variants run on the same cores; the measured gap is
  // the pure cost of the task-composition bookkeeping.
  std::printf("\n--- E2. MLINK bundling: distributed spec vs parallel spec "
              "(real threaded runtime, level 4) ---\n");
  transport::ProgramConfig program;
  program.level = 4;
  for (bool parallel : {false, true}) {
    mw::ConcurrentOptions options;
    options.tasks = parallel
                        ? iwim::TaskCompositionSpec::paper_parallel(
                              grid::component_count(program.level))
                        : iwim::TaskCompositionSpec::paper_distributed();
    support::Stopwatch sw;
    const auto result = mw::solve_concurrent(program, options);
    const double wall = sw.elapsed_seconds();
    std::printf("  %-18s wall = %6.3f s, task instances = %zu\n",
                parallel ? "parallel (load N)" : "distributed (load 1)", wall,
                result.tasks.tasks_created);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", parallel ? "parallel_load_n" : "distributed_load_1");
      w->kv("wall_s", wall);
      w->kv("task_instances", static_cast<std::uint64_t>(result.tasks.tasks_created));
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_stage_solver(ReportSink& sink) {
  sink.begin_section("stage_solver");
  std::printf("\n--- F. stage solver in subsolve (real kernel, grid G(2;3,3), tol 1e-4) ---\n");
  const grid::Grid2D g(2, 3, 3);
  for (auto kind :
       {transport::StageSolverKind::BandedLU, transport::StageSolverKind::BiCgStabIlu0}) {
    transport::SubsolveConfig config;
    config.le_tol = 1e-4;
    config.system.solver = kind;
    const auto r = transport::subsolve(g, config);
    std::printf("  %-16s wall = %6.3f s, steps = %3zu (+%zu rejected), solves = %3zu\n",
                to_string(kind), r.elapsed_seconds, r.stats.accepted, r.stats.rejected,
                r.stats.stage_solves);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", to_string(kind)).kv("wall_s", r.elapsed_seconds);
      w->kv("steps_accepted", static_cast<std::uint64_t>(r.stats.accepted));
      w->kv("steps_rejected", static_cast<std::uint64_t>(r.stats.rejected));
      w->kv("stage_solves", static_cast<std::uint64_t>(r.stats.stage_solves));
      w->end_object();
    }
  }
  sink.end_section();
}

void ablation_advection_scheme(ReportSink& sink) {
  sink.begin_section("advection_scheme");
  std::printf("\n--- G. advection scheme accuracy (grid G(2;4,4), tol 1e-5) ---\n");
  const grid::Grid2D g(2, 4, 4);
  for (auto scheme : {transport::AdvectionScheme::Central2, transport::AdvectionScheme::Upwind1}) {
    transport::SubsolveConfig config;
    config.le_tol = 1e-5;
    config.system.scheme = scheme;
    const auto r = transport::subsolve(g, config);
    const transport::TransportProblem& p = config.problem;
    const double t1 = config.t1;
    const double err =
        r.solution.max_error([&](double x, double y) { return p.exact(x, y, t1); });
    std::printf("  %-10s max error vs analytic = %.3e\n", to_string(scheme), err);
    if (auto* w = sink.entries()) {
      w->begin_object();
      w->kv("label", to_string(scheme)).kv("max_error", err);
      w->end_object();
    }
  }
  sink.end_section();
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  namespace cli = examples::cli;
  cli::Table("ablation", {cli::text("--report", report_path, "PATH", "write the sections as JSON")})
      .parse_or_exit(argc, argv);

  std::printf("=== Ablation benches (design choices named in the paper) ===\n");
  obs::RunReport report("ablation");
  ReportSink sink;
  if (!report_path.empty()) {
    report.config().begin_object().end_object();
    report.derived().begin_object();
    report.derived().key("sections").begin_array();
    sink.rep = &report.derived();
  }

  const cluster::AthlonCostModel cost;
  ablation_pool_structure(cost, sink);
  ablation_perpetual(cost, sink);
  ablation_cluster_mix(cost, sink);
  ablation_network(cost, sink);
  ablation_background_jobs(cost, sink);
  ablation_fault_tolerance(cost, sink);
  ablation_data_path(sink);
  ablation_parallel_bundling(sink);
  ablation_stage_solver(sink);
  ablation_advection_scheme(sink);

  if (!report_path.empty()) {
    report.derived().end_array();
    report.derived().end_object();
    if (!report.write(report_path)) return 1;
    std::printf("\nreport written to %s\n", report_path.c_str());
  }
  return 0;
}

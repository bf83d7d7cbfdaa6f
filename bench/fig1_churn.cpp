// Figure-1 companion under churn: "machines vs elapsed time" for one
// elastic-fleet run where hosts join, leave, and crash mid-solve per a
// seeded churn plan.  Where fig1_ebbflow shows the ebb & flow the *work*
// induces on a fixed fleet, this bench shows the ebb & flow the *fleet*
// induces on the work — the paper's spot-instance story (§2's perpetual
// MLINK tasks surviving host turnover) rendered as the same step chart.
//
// The run is the virtual-time simulator's elastic variant
// (cluster::simulate_churn_run) on the worker pool's model: one
// work queue that every idle host takes the head of, and a lost lease
// re-queued or abandoned by the same fault::LeaseLedger the pool asks.
// Exactly-once completion is asserted inside the simulator, so a successful
// run *is* the invariant check.
//
// The default output path is BENCH_churn.json in the working directory; the
// committed copy at the repo root is a bench trajectory
// (bench/bench_trajectory.hpp) — each run appends one {label, timestamp,
// report} entry whose report carries the machines-vs-time series and the
// fleet counters.  Virtual time is deterministic per seed, so unlike the
// wall-clock benches this trajectory should be stable across machines.
#include <cstdio>
#include <exception>
#include <string>

#include "bench/bench_trajectory.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "examples/cli.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/churn.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "trace/ebb_flow.hpp"

int main(int argc, char** argv) {
  // Level 18 gives 37 terms over the paper's 31 worker hosts, so the work
  // queue outlasts the first wave and churn finds busy hosts; the churn
  // window covers the early, fleet-saturated part of the run.
  int level = 18;
  double tol = 1e-4;
  std::string churn_spec = "seed=2004,joins=8,leaves=6,crashes=4,start=30,spread=1800";
  std::string out_path = "BENCH_churn.json";
  std::string label = "dev";
  std::string timestamp;
  std::string report_path;
  namespace cli = mg::examples::cli;
  cli::Table table(
      "fig1_churn",
      {cli::count("--level", level, cli::kRoot2Levels, "sparse-grid level of the run"),
       cli::real("--tol", tol, cli::Reals::Positive, "integrator tolerance"),
       cli::text("--churn", churn_spec, "SPEC", "seeded fleet joins, leaves and crashes"),
       cli::text("--out", out_path, "PATH", "trajectory to append the entry to"),
       cli::text("--label", label, "S", "label of the entry"),
       cli::text("--timestamp", timestamp, "S", "timestamp of the entry (default: now)"),
       cli::text("--report", report_path, "PATH", "also write the report on its own")});
  table.parse_or_exit(argc, argv);

  mg::fleet::ChurnPlanConfig churn;
  try {
    churn = mg::fleet::parse_churn_spec(churn_spec);
  } catch (const std::exception& e) {
    table.fail("bad --churn '" + churn_spec + "' (" + e.what() + ")");
  }

  const mg::cluster::AthlonCostModel cost;
  const mg::cluster::SimConfig config;
  const auto run = mg::cluster::simulate_churn_run(2, level, tol, cost, config, churn);

  std::printf("=== Figure 1 under churn: level %d, tol %g, churn '%s' ===\n", level, tol,
              churn_spec.c_str());
  std::printf("run length %.1f s, peak %d machines, weighted average %.1f machines, "
              "%zu terms (every term completed exactly once)\n",
              run.concurrent_seconds, run.peak_machines, run.weighted_machines,
              run.terms_total);
  std::printf("fleet: %zu joins, %zu leaves, %zu crashes, %zu duplicates discarded\n",
              run.fleet.joins, run.fleet.leaves, run.fleet.crashes, run.fleet.duplicates);
  std::printf("faults: %zu timeouts, %zu retries, %zu abandoned%s\n\n", run.faults.timeouts,
              run.faults.retries, run.faults.abandoned,
              run.faults.degraded ? " (recomputed by the master)" : "");
  std::printf("%s\n", mg::trace::render_ascii_chart(run.machines, 96, 20).c_str());

  std::printf("# series (gnuplot format): time_s machines\n");
  const auto& s = run.machines;
  for (std::size_t i = 0; i < s.times.size(); ++i) {
    std::printf("%10.3f %3d\n", s.times[i], s.counts[i]);
  }
  std::printf("%10.3f %3d\n", s.end_time, s.counts.empty() ? 0 : s.counts.back());

  mg::obs::RunReport report("fig1_churn");
  report.config().begin_object();
  report.config().kv("root", 2).kv("level", level).kv("tol", tol);
  report.config().kv("churn", churn_spec);
  report.config().end_object();
  report.derived().begin_object();
  report.derived().kv("concurrent_seconds", run.concurrent_seconds);
  report.derived().kv("peak_machines", run.peak_machines);
  report.derived().kv("weighted_machines", run.weighted_machines);
  report.derived().kv("terms_total", static_cast<std::uint64_t>(run.terms_total));
  report.derived().key("fleet");
  mg::fleet::fleet_counters_to_json(report.derived(), run.fleet);
  report.derived().key("machines_vs_time").begin_object();
  report.derived().key("times").begin_array();
  for (const double t : s.times) report.derived().value(t);
  report.derived().end_array();
  report.derived().key("counts").begin_array();
  for (const int c : s.counts) report.derived().value(c);
  report.derived().end_array();
  report.derived().kv("end_time", s.end_time);
  report.derived().end_object();
  report.derived().end_object();
  if (run.faults.any()) mg::fault::fault_counters_to_json(report.faults(), run.faults);

  const std::string report_json = report.json(mg::obs::registry().snapshot());
  if (!report_path.empty()) {
    if (!mg::obs::write_text_file(report_path, report_json)) {
      std::fprintf(stderr, "fig1_churn: cannot write %s\n", report_path.c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (timestamp.empty()) timestamp = mg::bench::default_timestamp();
  if (!mg::bench::append_bench_entry(out_path, label, timestamp, report_json)) {
    std::fprintf(stderr, "fig1_churn: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("entry '%s' appended to %s\n", label.c_str(), out_path.c_str());
  return 0;
}

// Regenerates Figure 1: "The ebb & flow during a run of our restructured
// application for level 15" — the number of machines in use versus elapsed
// time for one distributed run, plus the weighted average machine count.
//
// The paper's figure shows a run of 634 s peaking at 32 machines with a
// weighted average of 11 (a level-15 run; its elapsed time sits between the
// Table-1 averages for the two tolerances).  We plot one seeded level-15
// run at tolerance 1.0e-4.
//
// --report=PATH writes a JSON run report (run summary + ebb-&-flow series +
// metrics snapshot); --trace=PATH writes the simulator's virtual-time
// schedule as Chrome trace_event JSON (open in about:tracing / Perfetto) —
// Figure 1 is the count of concurrently-open compute spans in that trace.
#include <cstdint>
#include <cstdio>
#include <string>

#include "cluster/cluster_sim.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/sim_report.hpp"
#include "examples/cli.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "trace/ebb_flow.hpp"

int main(int argc, char** argv) {
  int level = 15;
  double tol = 1e-4;
  std::uint64_t seed = 2004;
  std::string report_path, trace_path;
  namespace cli = mg::examples::cli;
  cli::Table("fig1_ebbflow",
             {cli::count("--level", level, cli::kRoot2Levels, "sparse-grid level of the run"),
              cli::real("--tol", tol, cli::Reals::Positive, "integrator tolerance"),
              cli::count("--seed", seed, {}, "seed of the simulated run"),
              cli::text("--report", report_path, "PATH", "write a JSON run report"),
              cli::text("--trace", trace_path, "PATH", "write the schedule as a trace")})
      .parse_or_exit(argc, argv);

  const mg::cluster::AthlonCostModel cost;
  mg::cluster::SimConfig config;
  mg::obs::SpanTracer sim_tracer;
  if (!trace_path.empty()) {
    sim_tracer.enable();  // explicit-time records; the sim supplies virtual times
    config.tracer = &sim_tracer;
  }
  const auto run = mg::cluster::simulate_run(2, level, tol, cost, config, seed);

  std::printf("=== Figure 1: ebb & flow, level %d, tol %g ===\n", level, tol);
  std::printf("run length %.1f s, peak %d machines, weighted average %.1f machines, "
              "%zu task instances forked (paper: 634 s, peak 32, weighted average 11)\n\n",
              run.concurrent_seconds, run.peak_machines, run.weighted_machines,
              run.tasks_spawned);
  std::printf("%s\n", mg::trace::render_ascii_chart(run.ebb_flow, 96, 20).c_str());

  std::printf("# series (gnuplot format): time_s machines\n");
  const auto& s = run.ebb_flow;
  for (std::size_t i = 0; i < s.times.size(); ++i) {
    std::printf("%10.3f %3d\n", s.times[i], s.counts[i]);
  }
  std::printf("%10.3f %3d\n", s.end_time, s.counts.empty() ? 0 : s.counts.back());

  if (!report_path.empty()) {
    mg::obs::RunReport report("fig1_ebbflow");
    report.config().begin_object();
    report.config().kv("root", 2).kv("level", level).kv("tol", tol);
    report.config().kv("seed", static_cast<std::uint64_t>(seed));
    report.config().end_object();
    report.derived().begin_object();
    report.derived().key("run");
    mg::cluster::append_run_json(report.derived(), run);
    report.derived().end_object();
    if (!report.write(report_path)) return 1;
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!mg::obs::write_text_file(trace_path, sim_tracer.chrome_trace_json())) return 1;
    std::printf("chrome trace (%zu spans) written to %s\n", sim_tracer.size(),
                trace_path.c_str());
  }
  return 0;
}

// Regenerates Figure 1: "The ebb & flow during a run of our restructured
// application for level 15" — the number of machines in use versus elapsed
// time for one distributed run, plus the weighted average machine count.
//
// The paper's figure shows a run of 634 s peaking at 32 machines with a
// weighted average of 11 (a level-15 run; its elapsed time sits between the
// Table-1 averages for the two tolerances).  We plot one seeded level-15
// run at tolerance 1.0e-4.
//
// Usage: fig1_ebbflow [--level L] [--tol T] [--seed S] [--report=PATH] [--trace=PATH]
// An unknown flag, a flag missing its value, a malformed number, a level
// outside 0..37, a negative seed or a non-positive tolerance exits 2 with the
// usage line.
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
#include "examples/solver_cli.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "trace/ebb_flow.hpp"

namespace {

constexpr const char* kUsage =
    "usage: fig1_ebbflow [--level L] [--tol T] [--seed S] [--report=PATH] [--trace=PATH]\n";

}  // namespace

int main(int argc, char** argv) {
  int level = 15;
  double tol = 1e-4;
  std::uint64_t seed = 2004;
  std::string report_path, trace_path;
  using namespace mg::examples::cli_detail;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool ok = true;
    if (flag_value(argc, argv, i, "--level", v)) {
      ok = parse_root2_level(v, level);
    } else if (flag_value(argc, argv, i, "--tol", v)) {
      ok = parse_double(v, tol) && tol > 0.0;
    } else if (flag_value(argc, argv, i, "--seed", v)) {
      ok = parse_count(v, seed);
    } else if (starts_with(arg, "--report=", v)) {
      report_path = v;
    } else if (starts_with(arg, "--trace=", v)) {
      trace_path = v;
    } else {
      std::fprintf(stderr, "fig1_ebbflow: unknown flag or missing value '%s'\n%s", arg, kUsage);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "fig1_ebbflow: bad value '%s' for %s\n%s", v, arg, kUsage);
      return 2;
    }
  }

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

// Perf smoke for the subsolve hot path: times prepare_stage on its two
// cache paths (refresh / hit), runs subsolve per solver kind and level with
// the metrics registry capturing the assemble/factor/solve decomposition,
// and counts the warm-started Krylov iterations.  Each level L of the
// subsolve table has the square G(2;L,L) and
// the mirror pair G(2;L,0) / G(2;0,L); the banded solver factors along a
// grid's short axis, so a mirror pair should cost the same per step (the
// "mirror_pair" object compares the largest one; the two grids take
// different step counts, so it compares seconds per accepted step).  Emits
// one machine-readable report (see src/obs/report.hpp) so the hot-path
// numbers in README/DESIGN are regenerable artifacts.
//
// The default output path is BENCH_subsolve.json in the working directory;
// the committed copy at the repo root is this tool's output on the dev
// container.  The file is a bench *trajectory* (bench/bench_trajectory.hpp):
// each run appends one {label, timestamp, report} entry — pass
// --label="$(git describe --always --dirty)" and a --timestamp so the entry
// says which tree produced it.  Timings are wall-clock and machine-
// dependent; the report is a smoke record, not a calibrated benchmark.
#include <cstdio>
#include <string>

#include "bench/bench_trajectory.hpp"
#include "examples/cli.hpp"
#include "grid/grid2d.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/stopwatch.hpp"
#include "transport/subsolve.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg;

double prepare_seconds(transport::TransportSystem& system, int reps, bool alternate) {
  const linalg::Vec u(system.dimension(), 0.5);
  // The refresh loop may have left gamma_h at 0.02: an untimed call at 0.01
  // takes the refactorisation, so the hit loop times hits only.
  if (!alternate) static_cast<void>(system.prepare_stage(0.0, u, 0.01));
  support::Stopwatch clock;
  for (int i = 0; i < reps; ++i) {
    const double gamma_h = alternate && (i % 2 != 0) ? 0.02 : 0.01;
    auto solver = system.prepare_stage(0.0, u, gamma_h);
    static_cast<void>(solver);
  }
  return clock.elapsed_seconds() / reps;
}

std::uint64_t bicgstab_iterations(const grid::Grid2D& g) {
  transport::SubsolveConfig config;
  config.system.solver = transport::StageSolverKind::BiCgStabIlu0;
  obs::registry().reset();
  transport::subsolve(g, config);
  return obs::registry().snapshot().counter_or("linalg.bicgstab_iterations");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_subsolve.json";
  std::string label = "dev";
  std::string timestamp;
  int max_level = 3;
  int reps = 200;
  namespace cli = examples::cli;
  cli::Table("perf_smoke",
             {cli::text("--out", out_path, "PATH", "trajectory to append the entry to"),
              cli::count("--max-level", max_level, {1}, "last level of the subsolve table"),
              cli::count("--level", max_level, {1}, "same as --max-level"),
              cli::count("--reps", reps, {1}, "prepare_stage calls per timing"),
              cli::text("--label", label, "S", "label of the entry"),
              cli::text("--timestamp", timestamp, "S", "timestamp of the entry (default: now)")})
      .parse_or_exit(argc, argv);
  if (timestamp.empty()) timestamp = bench::default_timestamp();

  obs::RunReport report("perf_smoke");
  report.config().begin_object();
  report.config().kv("root", 2).kv("max_level", max_level).kv("reps", reps);
  report.config().end_object();
  report.derived().begin_object();

  // --- prepare_stage: refresh vs hit --------------------------------------------
  {
    const grid::Grid2D g(2, 4, 4);
    transport::TransportSystem system(g, transport::TransportProblem{});
    const double refresh = prepare_seconds(system, reps, /*alternate=*/true);
    const double hit = prepare_seconds(system, reps, /*alternate=*/false);
    const double hit_speedup = hit > 0.0 ? refresh / hit : 0.0;
    std::printf("prepare_stage on G(2;4,4), banded LU, %d reps:\n", reps);
    std::printf("  refresh %.3g us  hit %.3g us (%.1fx)\n", refresh * 1e6, hit * 1e6,
                hit_speedup);
    report.derived().key("prepare_stage").begin_object();
    report.derived().kv("grid", "G(2;4,4)").kv("solver", "banded-lu");
    report.derived().kv("refresh_seconds", refresh);
    report.derived().kv("hit_seconds", hit);
    report.derived().kv("hit_speedup", hit_speedup);
    report.derived().end_object();
  }

  // --- warm-started Krylov iterations --------------------------------------------
  {
    const grid::Grid2D g(2, 3, 3);
    const std::uint64_t warm = bicgstab_iterations(g);
    std::printf("bicgstab iterations on G(2;3,3), ilu0, warm-started: %llu\n",
                static_cast<unsigned long long>(warm));
    report.derived().key("warm_start").begin_object();
    report.derived().kv("grid", "G(2;3,3)").kv("solver", "bicgstab+ilu0");
    report.derived().kv("warm_iterations", warm);
    report.derived().end_object();
  }

  // --- subsolve per solver kind and level, with the stage decomposition ---------
  const transport::StageSolverKind kinds[] = {transport::StageSolverKind::BandedLU,
                                              transport::StageSolverKind::BiCgStabIlu0};
  // Seconds per accepted step of the banded-LU subsolves of G(2;max_level,0)
  // and of its mirror G(2;0,max_level).
  double mirror_wide = 0.0;
  double mirror_tall = 0.0;
  report.derived().key("subsolve").begin_array();
  for (const auto kind : kinds) {
    for (int l = 1; l <= max_level; ++l) {
      for (const grid::Grid2D g : {grid::Grid2D(2, l, l), grid::Grid2D(2, l, 0),
                                   grid::Grid2D(2, 0, l)}) {
        transport::SubsolveConfig config;
        config.system.solver = kind;
        obs::registry().reset();
        const auto r = transport::subsolve(g, config);
        const auto snap = obs::registry().snapshot();
        const double hit_rate = snap.counter_ratio(
            "linalg.stage_cache.hits",
            {"linalg.stage_cache.hits", "linalg.stage_cache.misses",
             "linalg.stage_cache.refreshes"});
        std::printf("subsolve %-9s %-15s %8.3f ms  steps %4llu  hit rate %.2f\n",
                    g.name().c_str(), to_string(kind), r.elapsed_seconds * 1e3,
                    static_cast<unsigned long long>(r.stats.accepted), hit_rate);
        if (kind == transport::StageSolverKind::BandedLU && l == max_level &&
            r.stats.accepted > 0) {
          const double per_step = r.elapsed_seconds / static_cast<double>(r.stats.accepted);
          if (g.ly() == 0) mirror_wide = per_step;
          if (g.lx() == 0) mirror_tall = per_step;
        }
        report.derived().begin_object();
        report.derived().kv("grid", g.name());
        report.derived().kv("solver", to_string(kind));
        report.derived().kv("elapsed_seconds", r.elapsed_seconds);
        report.derived().kv("accepted_steps", r.stats.accepted);
        report.derived().kv("stage_preparations", r.stats.stage_preparations);
        report.derived().kv("assemble_seconds",
                            snap.histograms.count("linalg.stage_assemble_seconds")
                                ? snap.histograms.at("linalg.stage_assemble_seconds").sum
                                : 0.0);
        report.derived().kv("factor_seconds",
                            snap.histograms.count("linalg.stage_factor_seconds")
                                ? snap.histograms.at("linalg.stage_factor_seconds").sum
                                : 0.0);
        report.derived().kv("solve_seconds",
                            snap.histograms.count("linalg.stage_solve_seconds")
                                ? snap.histograms.at("linalg.stage_solve_seconds").sum
                                : 0.0);
        report.derived().kv("cache_hits", snap.counter_or("linalg.stage_cache.hits"));
        report.derived().kv("cache_misses", snap.counter_or("linalg.stage_cache.misses"));
        report.derived().kv("cache_refreshes", snap.counter_or("linalg.stage_cache.refreshes"));
        report.derived().kv("cache_hit_rate", hit_rate);
        report.derived().kv("bicgstab_iterations", snap.counter_or("linalg.bicgstab_iterations"));
        report.derived().end_object();
      }
    }
  }
  report.derived().end_array();
  {
    const double ratio = mirror_tall > 0.0 ? mirror_wide / mirror_tall : 0.0;
    std::printf("mirror pair G(2;%d,0) / G(2;0,%d), banded-lu, per accepted step: %.2fx\n",
                max_level, max_level, ratio);
    report.derived().key("mirror_pair").begin_object();
    report.derived().kv("solver", "banded-lu");
    report.derived().kv("wide_grid", grid::Grid2D(2, max_level, 0).name());
    report.derived().kv("tall_grid", grid::Grid2D(2, 0, max_level).name());
    report.derived().kv("wide_seconds_per_step", mirror_wide);
    report.derived().kv("tall_seconds_per_step", mirror_tall);
    report.derived().kv("wide_over_tall", ratio);
    report.derived().end_object();
  }

  report.derived().end_object();

  if (!bench::append_bench_entry(out_path, label, timestamp,
                                 report.json(obs::registry().snapshot()))) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("entry '%s' appended to %s\n", label.c_str(), out_path.c_str());
  return 0;
}

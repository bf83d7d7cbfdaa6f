// The Molenkamp–Crowley rotating-cone test, run as a master/worker farm:
// one worker per grid resolution, all revolving the cone concurrently under
// the same generic ProtocolMW coordinator the sparse-grid application uses —
// a third domain demonstrating the protocol's genericity.
#include <cstdio>
#include <map>

#include "cli.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/worker.hpp"
#include "manifold/runtime.hpp"
#include "transport/rotating.hpp"

namespace {

using namespace mg;

struct ConeJob {
  int level;
  double t1;
};

struct ConeResult {
  int level;
  double max_error;
  std::size_t steps;
};

}  // namespace

int main(int argc, char** argv) {
  int max_level = 4;
  double t1 = 0.25;
  // Grid2D holds at most 2^39 cells per axis, and ROS2 needs t1 > 0.
  namespace cli = examples::cli;
  cli::Table("molenkamp",
             {cli::count("max_level", max_level, {1, 37}, "one worker per level 1..max_level"),
              cli::real("t1", t1, cli::Reals::Positive, "revolutions to turn the cone")})
      .parse_or_exit(argc, argv);

  iwim::Runtime runtime;
  std::map<int, ConeResult> results;

  auto master = mw::make_master(runtime, "master", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    api.create_pool();
    for (int l = 1; l <= max_level; ++l) {
      api.create_worker();
      api.send_work(iwim::Unit::of(ConeJob{l, t1}));
    }
    for (int l = 1; l <= max_level; ++l) {
      const auto r = api.collect_result().as<ConeResult>();
      results[r.level] = r;
    }
    api.rendezvous();
    api.finished();
  });

  auto factory = mw::make_worker_factory([](const iwim::Unit& u) {
    const auto job = u.as<ConeJob>();
    const transport::RotatingConeProblem problem;
    const auto r =
        transport::solve_rotating_cone(grid::Grid2D(2, job.level, job.level), problem, 1e-4, job.t1);
    return iwim::Unit::of(ConeResult{job.level, r.max_error, r.stats.accepted});
  });

  mw::run_main_program(runtime, master, std::move(factory));

  std::printf("Molenkamp rotating cone after %.2f revolution(s), first-order upwind + ROS2:\n",
              t1);
  std::printf("%7s %9s %12s %7s\n", "level", "grid", "max error", "steps");
  double prev = 0.0;
  bool monotone = true;
  for (const auto& [level, r] : results) {
    const std::size_t n = (std::size_t{1} << (2 + level));
    std::printf("%7d %4zux%-4zu %12.4f %7zu\n", level, n, n, r.max_error, r.steps);
    if (level > 1 && r.max_error >= prev) monotone = false;
    prev = r.max_error;
  }
  std::printf("error decreases with refinement: %s\n", monotone ? "yes" : "NO");
  return monotone ? 0 : 1;
}

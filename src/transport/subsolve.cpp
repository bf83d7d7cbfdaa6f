#include "transport/subsolve.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mg::transport {

namespace {
struct SubsolveMetrics {
  obs::Counter& calls = obs::registry().counter("transport.subsolve_calls");
  obs::Counter& steps_accepted = obs::registry().counter("transport.steps_accepted");
  obs::Counter& steps_rejected = obs::registry().counter("transport.steps_rejected");
  obs::Counter& stage_solves = obs::registry().counter("transport.stage_solves");
  obs::Histogram& seconds = obs::registry().histogram("transport.subsolve_seconds");
};

SubsolveMetrics& subsolve_metrics() {
  static SubsolveMetrics m;
  return m;
}
}  // namespace

SubsolveResult subsolve(const grid::Grid2D& g, const SubsolveConfig& config) {
  MG_REQUIRE(config.t1 > config.t0);
  const std::string grid_name = g.name();
  const obs::ScopedSpan span(&obs::tracer(), grid_name.c_str(), "transport", "subsolve");
  support::Stopwatch sw;

  TransportSystem system(g, config.problem, config.system);

  // Initial condition at t0.
  grid::Field init(g);
  init.sample([&](double x, double y) { return config.problem.exact(x, y, config.t0); });
  ros::Vec u = system.restrict_interior(init);

  ros::Ros2Options opts;
  opts.tol = config.le_tol;
  opts.t0 = config.t0;
  opts.t1 = config.t1;

  ros::Ros2Stats stats = ros::integrate(system, u, opts);

  SubsolveResult result{system.expand(u, config.t1), stats, sw.elapsed_seconds()};
  SubsolveMetrics& metrics = subsolve_metrics();
  metrics.calls.add();
  metrics.steps_accepted.add(stats.accepted);
  metrics.steps_rejected.add(stats.rejected);
  metrics.stage_solves.add(stats.stage_solves);
  metrics.seconds.observe(result.elapsed_seconds);
  return result;
}

std::size_t subsolve_payload_bytes(const grid::Grid2D& g) {
  // One double per node plus a small fixed header of grid/problem parameters.
  return g.node_count() * sizeof(double) + 128;
}

}  // namespace mg::transport

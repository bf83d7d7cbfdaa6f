// The protocol is generic: "for the protocol, it is irrelevant to know what
// kind of computation is performed in the master or the worker" (§4).
//
// This example reuses ProtocolMW unchanged for a completely different
// domain: adaptive numerical quadrature.  The master splits the integral of
// f over [0, 1] into panels, farms each panel to a worker, and sums the
// partial results.  Two pools are used (coarse pass, then a refined pass on
// the worst panels), exercising the repeated create_pool path of §4.2.
#include <cmath>
#include <cstdio>
#include <vector>

#include "cli.hpp"
#include "core/master.hpp"
#include "core/protocol.hpp"
#include "core/worker.hpp"
#include "manifold/runtime.hpp"

namespace {

using namespace mg;

// The integrand: smooth but with a sharp feature, so refinement matters.
double f(double x) { return std::sin(20.0 * x) / (0.05 + x) + std::exp(-x * x); }

struct Panel {
  double a;
  double b;
  int samples;
};

struct PanelResult {
  double integral;
  double roughness;  ///< |f(a) - f(b)| as a crude refinement indicator
  double a, b;
};

// Composite Simpson on one panel — the worker's computational job.
iwim::Unit integrate_panel(const iwim::Unit& unit) {
  const Panel p = unit.as<Panel>();
  const int n = p.samples % 2 == 0 ? p.samples : p.samples + 1;
  const double h = (p.b - p.a) / n;
  double s = f(p.a) + f(p.b);
  for (int i = 1; i < n; ++i) s += f(p.a + i * h) * (i % 2 == 1 ? 4.0 : 2.0);
  return iwim::Unit::of(PanelResult{s * h / 3.0, std::abs(f(p.a) - f(p.b)), p.a, p.b});
}

}  // namespace

int main(int argc, char** argv) {
  int panels = 16;
  // Each panel is one worker thread of the first pool.
  namespace cli = examples::cli;
  cli::Table("task_farm", {cli::count("panels", panels, {1, 256}, "panels of the first pass")})
      .parse_or_exit(argc, argv);

  iwim::Runtime runtime;
  double total = 0.0;

  auto master = mw::make_master(runtime, "master", [&](mw::MasterApi& api, iwim::ProcessContext&) {
    // Pool 1: coarse pass over uniform panels.
    api.create_pool();
    for (int k = 0; k < panels; ++k) {
      api.create_worker();
      api.send_work(iwim::Unit::of(
          Panel{static_cast<double>(k) / panels, static_cast<double>(k + 1) / panels, 64}));
    }
    std::vector<PanelResult> results;
    for (int k = 0; k < panels; ++k) {
      results.push_back(api.collect_result().as<PanelResult>());
    }
    api.rendezvous();

    // Pool 2 (the §4.2 "more demanding master"): re-integrate the roughest
    // half of the panels with 8x the samples.
    std::sort(results.begin(), results.end(),
              [](const PanelResult& x, const PanelResult& y) { return x.roughness > y.roughness; });
    const std::size_t refine = results.size() / 2;
    api.create_pool();
    for (std::size_t k = 0; k < refine; ++k) {
      api.create_worker();
      api.send_work(iwim::Unit::of(Panel{results[k].a, results[k].b, 512}));
    }
    for (std::size_t k = 0; k < refine; ++k) {
      const auto refined = api.collect_result().as<PanelResult>();
      // Replace the coarse value of the matching panel.
      for (auto& r : results) {
        if (r.a == refined.a && r.b == refined.b) r.integral = refined.integral;
      }
    }
    api.rendezvous();
    api.finished();

    for (const auto& r : results) total += r.integral;
  });

  const auto stats = mw::run_main_program(runtime, master, mw::make_worker_factory(integrate_panel));

  // High-resolution reference on one grid.
  double reference = 0.0;
  {
    const int n = 1 << 20;
    const double h = 1.0 / n;
    reference = f(0.0) + f(1.0);
    for (int i = 1; i < n; ++i) reference += f(i * h) * (i % 2 == 1 ? 4.0 : 2.0);
    reference *= h / 3.0;
  }

  std::printf("task farm quadrature: %d panels, %zu pools, %zu workers\n", panels,
              stats.pools_created, stats.workers_created);
  std::printf("integral = %.10f, reference = %.10f, error = %.2e\n", total, reference,
              std::abs(total - reference));
  return std::abs(total - reference) < 1e-6 ? 0 : 1;
}

#include "rosenbrock/ros2.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/check.hpp"

namespace mg::ros {

namespace {

// Step hysteresis (RADAU5's QUOT1/QUOT2, Hairer & Wanner, Solving ODEs II,
// §IV.8): after an accepted step whose proposed growth lies in [1, kHoldLimit],
// h is kept, so gamma*h repeats bit for bit and prepare_stage reuses the
// factors instead of refactoring.  Keeping h only ever takes a smaller step
// than the controller proposes, so every accepted step still passes err <= 1.
// Of {1.2, 1.5, 1.8}, 1.5 gave the lowest summed sequential time over levels
// 6-10 among the limits that keep the per-grid hit ratio >= 0.8 (DESIGN.md
// §9).  It must stay below grow_limit, or h never grows.
constexpr double kHoldLimit = 1.5;

}  // namespace

double ros2_gamma() { return 1.0 + 1.0 / std::sqrt(2.0); }

Ros2Stats integrate(OdeSystem& system, Vec& u, const Ros2Options& opts) {
  MG_REQUIRE(opts.t1 > opts.t0);
  MG_REQUIRE(opts.tol > 0.0);
  MG_REQUIRE(u.size() == system.dimension());

  const double gamma = ros2_gamma();
  const double span = opts.t1 - opts.t0;
  const double h_max = opts.h_max > 0.0 ? opts.h_max : span;
  double h = opts.h0 > 0.0 ? opts.h0 : span / 100.0;
  h = std::min(h, h_max);

  Ros2Stats stats;
  const std::size_t n = u.size();
  Vec f0(n), f1(n), k1(n), k2(n), u_stage(n), u_new(n), err_vec(n);

  double t = opts.t0;
  while (t < opts.t1 - 1e-14 * span) {
    if (stats.accepted + stats.rejected >= opts.max_steps) {
      throw std::runtime_error("ros2: max_steps exceeded");
    }
    h = std::min(h, opts.t1 - t);

    auto solver = system.prepare_stage(t, u, gamma * h);
    ++stats.stage_preparations;

    // Stage 1: (I - gamma h A) k1 = F(t, u).
    system.rhs(t, u, f0);
    ++stats.rhs_evaluations;
    solver->solve(f0, k1);
    ++stats.stage_solves;

    // Stage 2: (I - gamma h A) k2 = F(t + h, u + h k1) - 2 k1.
    for (std::size_t i = 0; i < n; ++i) u_stage[i] = u[i] + h * k1[i];
    system.rhs(t + h, u_stage, f1);
    ++stats.rhs_evaluations;
    for (std::size_t i = 0; i < n; ++i) f1[i] -= 2.0 * k1[i];
    k2 = k1;  // k1 is the best available guess for k2
    solver->solve(f1, k2);
    ++stats.stage_solves;

    for (std::size_t i = 0; i < n; ++i) {
      u_new[i] = u[i] + h * (1.5 * k1[i] + 0.5 * k2[i]);
      err_vec[i] = 0.5 * h * (k1[i] + k2[i]);  // u_new - (u + h k1), the embedded order-1 gap
    }

    if (opts.fixed_step) {
      u = u_new;
      t += h;
      ++stats.accepted;
      continue;
    }

    const double err = linalg::wrms_norm(err_vec, u, opts.tol, opts.tol);
    const bool accepted = err <= 1.0;
    if (accepted) {
      u = u_new;
      t += h;
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }

    // Standard order-1-estimate controller: err ~ h^2 for the embedded pair.
    // A non-finite estimate (a NaN or an overflow in a stage) is a rejection
    // with the largest shrink, so a hopeless run ends at h_min in ~20 steps.
    const double factor =
        std::isfinite(err)
            ? (err > 0.0 ? opts.safety * std::pow(1.0 / err, 0.5) : opts.grow_limit)
            : opts.shrink_limit;
    const double q = std::clamp(factor, opts.shrink_limit, opts.grow_limit);
    if (!(accepted && q >= 1.0 && q <= kHoldLimit)) h *= q;
    h = std::min(h, h_max);
    if (h < opts.h_min) throw std::runtime_error("ros2: step size underflow");
  }
  stats.final_h = h;
  return stats;
}

}  // namespace mg::ros

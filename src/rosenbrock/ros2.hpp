// ROS2 — the second-order, L-stable Rosenbrock W-method with adaptive step
// size (Verwer, Spee, Blom & Hundsdorfer's scheme, developed at CWI — the
// same institute and project family as the paper's transport code).
//
//   (I - gamma*h*A) k1 = F(t_n, u_n)
//   (I - gamma*h*A) k2 = F(t_n + h, u_n + h*k1) - 2*k1
//   u_{n+1} = u_n + (3/2) h k1 + (1/2) h k2,      gamma = 1 + 1/sqrt(2)
//
// The embedded first-order solution u_n + h*k1 gives the error estimate
// (h/2)||k1 + k2|| used by the controller; the controller tolerance is the
// paper's command-line `le_tol` (§3 line 18, §7: 1.0e-3 and 1.0e-4 runs).
//
// The controller proposes q = clamp(safety / sqrt(err), shrink_limit,
// grow_limit) and holds the step (RADAU5's step hysteresis): after an
// accepted step with q in [1, 1.5], h stays as it is, so gamma*h repeats bit
// for bit and an OdeSystem that caches its stage solver by gamma*h reuses
// the factors.  A rejected step, a larger q or a q below 1 rescales h as
// usual.  A non-finite error estimate is a rejection with q = shrink_limit.
#pragma once

#include <cstddef>

#include "rosenbrock/ode_system.hpp"

namespace mg::ros {

struct Ros2Options {
  double tol = 1e-3;        ///< the paper's le_tol (used as atol and rtol)
  double t0 = 0.0;
  double t1 = 1.0;
  double h0 = 0.0;          ///< initial step; 0 -> (t1-t0)/100
  double h_min = 1e-12;
  double h_max = 0.0;       ///< 0 -> t1-t0
  double safety = 0.9;
  double grow_limit = 2.0;
  double shrink_limit = 0.3;
  std::size_t max_steps = 1'000'000;
  bool fixed_step = false;  ///< integrate with constant h0 (for order tests)
};

struct Ros2Stats {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t rhs_evaluations = 0;
  std::size_t stage_preparations = 0;  ///< prepare_stage calls (cache hit, refresh or miss)
  std::size_t stage_solves = 0;        ///< linear-system solves
  double final_h = 0.0;
};

/// Integrates u from t0 to t1 in place.  The stage solves are warm-started:
/// k1/k2 are kept across steps, and k2 is seeded from this step's k1 before
/// the stage-2 solve, so an iterative StageSolver that honours its incoming
/// x starts next to the answer.  Direct solvers overwrite x, so their
/// results do not depend on the seed.  Throws std::runtime_error if the
/// controller under-flows h_min (a run whose error estimate stays non-finite
/// does so after ~20 steps) or exceeds max_steps.
Ros2Stats integrate(OdeSystem& system, Vec& u, const Ros2Options& opts);

/// The L-stability gamma: 1 + 1/sqrt(2).
double ros2_gamma();

}  // namespace mg::ros

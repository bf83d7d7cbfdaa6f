// Tests for the ROS2 Rosenbrock integrator: order of accuracy, W-method
// property (order holds with an approximate Jacobian), L-stability on stiff
// problems, the adaptive controller and its step hold, and failure modes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rosenbrock/ode_system.hpp"
#include "rosenbrock/ros2.hpp"
#include "support/check.hpp"

namespace {

using namespace mg::ros;

/// Scalar linear ODE u' = lambda u + forcing(t), exact solution supplied.
class ScalarLinear final : public OdeSystem {
 public:
  ScalarLinear(double lambda, std::function<double(double)> forcing, double jacobian_used)
      : lambda_(lambda), forcing_(std::move(forcing)), jac_(jacobian_used) {}

  std::size_t dimension() const override { return 1; }

  void rhs(double t, const Vec& u, Vec& f) override {
    f.resize(1);
    f[0] = lambda_ * u[0] + forcing_(t);
  }

  std::unique_ptr<StageSolver> prepare_stage(double, const Vec&, double gamma_h) override {
    struct Solver final : StageSolver {
      double denom;
      void solve(const Vec& rhs, Vec& x) override {
        x.resize(1);
        x[0] = rhs[0] / denom;
      }
    };
    auto s = std::make_unique<Solver>();
    s->denom = 1.0 - gamma_h * jac_;
    return s;
  }

 private:
  double lambda_;
  std::function<double(double)> forcing_;
  double jac_;
};

/// 2D linear system u' = A u with A = [[0, 1], [-1, 0]] (rotation).
class Rotation final : public OdeSystem {
 public:
  std::size_t dimension() const override { return 2; }
  void rhs(double, const Vec& u, Vec& f) override {
    f.resize(2);
    f[0] = u[1];
    f[1] = -u[0];
  }
  std::unique_ptr<StageSolver> prepare_stage(double, const Vec&, double gamma_h) override {
    // (I - gh A)^{-1} for A = rotation generator; closed form 2x2 inverse.
    struct Solver final : StageSolver {
      double g;
      void solve(const Vec& r, Vec& x) override {
        const double det = 1.0 + g * g;
        x.resize(2);
        x[0] = (r[0] + g * r[1]) / det;
        x[1] = (-g * r[0] + r[1]) / det;
      }
    };
    auto s = std::make_unique<Solver>();
    s->g = gamma_h;
    return s;
  }
};

/// Drives the controller with scripted error estimates: each preparation
/// records gamma*h and returns a stage solver whose k1 = k2 = k makes the
/// step's estimate |h k| / (tol (1 + |u|)) the next scripted value (0, so
/// the step doubles, once the script runs out).
class ScriptedError final : public OdeSystem {
 public:
  ScriptedError(std::vector<double> errors, double tol) : errors_(std::move(errors)), tol_(tol) {}

  std::size_t dimension() const override { return 1; }
  void rhs(double, const Vec&, Vec& f) override { f.assign(1, 0.0); }

  std::unique_ptr<StageSolver> prepare_stage(double, const Vec& u, double gamma_h) override {
    struct Solver final : StageSolver {
      double k;
      void solve(const Vec&, Vec& x) override { x.assign(1, k); }
    };
    const std::size_t step = gamma_h_seen.size();
    gamma_h_seen.push_back(gamma_h);
    const double err = step < errors_.size() ? errors_[step] : 0.0;
    auto s = std::make_unique<Solver>();
    s->k = err * tol_ * (1.0 + std::abs(u[0])) / (gamma_h / ros2_gamma());
    return s;
  }

  std::vector<double> gamma_h_seen;

 private:
  std::vector<double> errors_;
  double tol_;
};

/// u' = NaN: every error estimate is NaN.
class NanRhs final : public OdeSystem {
 public:
  std::size_t dimension() const override { return 1; }
  void rhs(double, const Vec&, Vec& f) override {
    f.assign(1, std::numeric_limits<double>::quiet_NaN());
  }
  std::unique_ptr<StageSolver> prepare_stage(double, const Vec&, double) override {
    struct Solver final : StageSolver {
      void solve(const Vec& rhs, Vec& x) override { x = rhs; }
    };
    ++preparations;
    return std::make_unique<Solver>();
  }
  std::size_t preparations = 0;
};

double fixed_step_error(OdeSystem& system, Vec u0, double t1, double h, double exact0) {
  Ros2Options opts;
  opts.t0 = 0.0;
  opts.t1 = t1;
  opts.h0 = h;
  opts.fixed_step = true;
  integrate(system, u0, opts);
  return std::abs(u0[0] - exact0);
}

TEST(Ros2, GammaIsOnePlusInvSqrt2) {
  EXPECT_NEAR(ros2_gamma(), 1.0 + 1.0 / std::sqrt(2.0), 1e-15);
}

TEST(Ros2, ExactForConstantDerivative) {
  // u' = c integrates exactly regardless of step size.
  ScalarLinear system(0.0, [](double) { return 2.5; }, 0.0);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.h0 = 0.3;
  opts.fixed_step = true;
  integrate(system, u, opts);
  EXPECT_NEAR(u[0], 1.0 + 2.5, 1e-12);
}

TEST(Ros2, SecondOrderConvergenceOnDecay) {
  // u' = -u, u(0)=1, exact e^{-1} at t=1.
  const double exact = std::exp(-1.0);
  ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
  const double e1 = fixed_step_error(system, {1.0}, 1.0, 0.1, exact);
  const double e2 = fixed_step_error(system, {1.0}, 1.0, 0.05, exact);
  const double order = std::log2(e1 / e2);
  EXPECT_NEAR(order, 2.0, 0.25);
}

TEST(Ros2, SecondOrderWithWrongJacobian) {
  // The W-method property: order 2 for ANY A.  Use A = 0 (explicit mode)
  // and A = -5 (wrong by 5x) on u' = -u.
  const double exact = std::exp(-1.0);
  for (double wrong_jacobian : {0.0, -5.0}) {
    ScalarLinear system(-1.0, [](double) { return 0.0; }, wrong_jacobian);
    const double e1 = fixed_step_error(system, {1.0}, 1.0, 0.01, exact);
    const double e2 = fixed_step_error(system, {1.0}, 1.0, 0.005, exact);
    EXPECT_NEAR(std::log2(e1 / e2), 2.0, 0.35) << "A = " << wrong_jacobian;
  }
}

TEST(Ros2, SecondOrderOnNonAutonomousForcing) {
  // u' = -u + sin(3t); exact solution via integrating factor:
  // u(t) = (u0 + 3/10) e^{-t} + (sin 3t - 3 cos 3t)/10.
  auto exact = [](double t) {
    return (1.0 + 0.3) * std::exp(-t) + (std::sin(3 * t) - 3 * std::cos(3 * t)) / 10.0;
  };
  ScalarLinear system(-1.0, [](double t) { return std::sin(3.0 * t); }, -1.0);
  // The error has a sign change near h ~ 0.07, so measure well below it; the
  // observed order approaches 2 from below on this pair.
  const double e1 = fixed_step_error(system, {1.0}, 1.0, 0.0125, exact(1.0));
  const double e2 = fixed_step_error(system, {1.0}, 1.0, 0.00625, exact(1.0));
  const double order = std::log2(e1 / e2);
  EXPECT_GE(order, 1.5);
  EXPECT_LE(order, 2.5);
}

TEST(Ros2, SecondOrderOnRotationSystem) {
  Rotation system;
  Vec u1{1.0, 0.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.fixed_step = true;
  opts.h0 = 0.05;
  integrate(system, u1, opts);
  const double e1 = std::abs(u1[0] - std::cos(1.0));
  Vec u2{1.0, 0.0};
  opts.h0 = 0.025;
  integrate(system, u2, opts);
  const double e2 = std::abs(u2[0] - std::cos(1.0));
  EXPECT_NEAR(std::log2(e1 / e2), 2.0, 0.4);
}

TEST(Ros2, LStableOnVeryStiffDecay) {
  // u' = -1e6 u with steps of 0.1: explicit methods explode; ROS2 must
  // damp to ~0 immediately and stay bounded.
  ScalarLinear system(-1e6, [](double) { return 0.0; }, -1e6);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.h0 = 0.1;
  opts.fixed_step = true;
  integrate(system, u, opts);
  EXPECT_LT(std::abs(u[0]), 1e-6);
}

TEST(Ros2, StiffSourceReachesSteadyState) {
  // u' = -1000 (u - 1): steady state u = 1 reached quickly.
  ScalarLinear system(-1000.0, [](double) { return 1000.0; }, -1000.0);
  Vec u{0.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.tol = 1e-6;
  const auto stats = integrate(system, u, opts);
  EXPECT_NEAR(u[0], 1.0, 1e-5);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(Ros2, AdaptiveMeetsTightVsLooseToleranceOrdering) {
  auto run = [](double tol) {
    ScalarLinear system(-1.0, [](double t) { return std::cos(10.0 * t); }, -1.0);
    Vec u{0.0};
    Ros2Options opts;
    opts.t1 = 2.0;
    opts.tol = tol;
    const auto stats = integrate(system, u, opts);
    return std::pair<double, std::size_t>(u[0], stats.accepted);
  };
  const auto [loose_u, loose_steps] = run(1e-3);
  const auto [tight_u, tight_steps] = run(1e-6);
  EXPECT_GT(tight_steps, loose_steps);  // tighter tolerance works harder
  // Exact: u(t) = (10 sin(10t) + cos(10t) - e^{-t})/101... check both close:
  const double exact = (10.0 * std::sin(20.0) + std::cos(20.0) - std::exp(-2.0)) / 101.0;
  EXPECT_NEAR(tight_u, exact, 1e-4);
  EXPECT_NEAR(loose_u, exact, 1e-1);
  EXPECT_LT(std::abs(tight_u - exact), std::abs(loose_u - exact) + 1e-12);
}

TEST(Ros2, AdaptiveErrorScalesWithTolerance) {
  auto error_at = [](double tol) {
    ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
    Vec u{1.0};
    Ros2Options opts;
    opts.t1 = 1.0;
    opts.tol = tol;
    integrate(system, u, opts);
    return std::abs(u[0] - std::exp(-1.0));
  };
  EXPECT_LT(error_at(1e-6), error_at(1e-3));
}

TEST(Ros2, RejectionsHappenWhenInitialStepTooBig) {
  ScalarLinear system(-1.0, [](double t) { return 100.0 * std::sin(40.0 * t); }, -1.0);
  Vec u{0.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.tol = 1e-8;
  opts.h0 = 0.5;  // far too big for this forcing at this tolerance
  const auto stats = integrate(system, u, opts);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(Ros2, StatsCountRhsAndSolves) {
  ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.h0 = 0.25;
  opts.fixed_step = true;
  const auto stats = integrate(system, u, opts);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.rhs_evaluations, 8u);       // 2 per step
  EXPECT_EQ(stats.stage_solves, 8u);          // 2 per step
  EXPECT_EQ(stats.stage_preparations, 4u);    // 1 per step
}

TEST(Ros2, FinalTimeIsHitExactly) {
  // u' = c is integrated exactly per step, so the result is sensitive only
  // to the total time span — a clipped last step must land exactly on t1.
  ScalarLinear system(0.0, [](double) { return 2.0; }, 0.0);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.h0 = 0.3;  // not a divisor of 1.0: last step must be clipped
  opts.fixed_step = true;
  integrate(system, u, opts);
  EXPECT_NEAR(u[0], 3.0, 1e-12);
}

TEST(Ros2, ThrowsOnMaxStepsExceeded) {
  ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = 1.0;
  opts.h0 = 1e-5;
  opts.fixed_step = true;
  opts.max_steps = 10;
  EXPECT_THROW(integrate(system, u, opts), std::runtime_error);
}

TEST(Ros2, HoldsTheStepWhenTheProposedGrowthIsSmall) {
  // The controller proposes q = clamp(0.9 / sqrt(err), 0.3, 2).  An accepted
  // step with q in [1, 1.5] keeps h, so the next preparation sees the same
  // gamma*h bits and the stage cache can reuse its factors; a larger q, an
  // accepted step with q < 1 and a rejection all move h.
  struct Case {
    double err;
    bool held;
  };
  const std::vector<Case> script = {
      {0.669, true},   // q ~ 1.10
      {0.413, true},   // q ~ 1.40
      {0.316, false},  // q ~ 1.60
      {0.669, true},
      {0.1, false},    // q = 2 (clamped)
      {0.669, true},
      {4.0, false},    // rejected, q = 0.45
      {0.669, true},
      {0.9, false},    // accepted, q ~ 0.95
      {0.669, true},
  };
  std::vector<double> errors;
  for (const Case& c : script) errors.push_back(c.err);
  const double tol = 1e-3;
  ScriptedError system(errors, tol);
  Vec u{1.0};
  Ros2Options opts;
  opts.tol = tol;
  opts.h0 = 1e-3;
  const auto stats = integrate(system, u, opts);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_GT(system.gamma_h_seen.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("scripted step " + std::to_string(i) + ", err " + std::to_string(script[i].err));
    const double before = system.gamma_h_seen[i];
    const double after = system.gamma_h_seen[i + 1];
    if (script[i].held) {
      EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0);
    } else {
      EXPECT_NE(before, after);
    }
  }
}

TEST(Ros2, NonFiniteErrorEstimateFailsFast) {
  // A NaN estimate is a rejection with the largest shrink, so the run ends
  // at the h_min check after ~20 steps instead of looping to max_steps.
  NanRhs system;
  Vec u{1.0};
  EXPECT_THROW(integrate(system, u, Ros2Options{}), std::runtime_error);
  EXPECT_LE(system.preparations, 30u);
}

TEST(Ros2, RejectsInvalidOptions) {
  ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
  Vec u{1.0};
  Ros2Options opts;
  opts.t1 = -1.0;
  EXPECT_THROW(integrate(system, u, opts), mg::support::ContractViolation);
  opts.t1 = 1.0;
  opts.tol = 0.0;
  EXPECT_THROW(integrate(system, u, opts), mg::support::ContractViolation);
}

TEST(Ros2, RejectsDimensionMismatch) {
  ScalarLinear system(-1.0, [](double) { return 0.0; }, -1.0);
  Vec u{1.0, 2.0};
  EXPECT_THROW(integrate(system, u, Ros2Options{}), mg::support::ContractViolation);
}

}  // namespace

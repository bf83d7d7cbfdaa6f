// Tests for the transport application: the analytic solution, the spatial
// discretisation, subsolve, and the full sequential program of §3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>

#include "linalg/banded.hpp"
#include "support/check.hpp"
#include "transport/problem.hpp"
#include "transport/seq_solver.hpp"
#include "transport/subsolve.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg;
using namespace mg::transport;

// ---- analytic solution ---------------------------------------------------------

TEST(Problem, ExactSolutionSatisfiesThePde) {
  // Check u_t + a.grad u - eps lap u == 0 by central finite differences at
  // interior points away from any boundary influence.
  TransportProblem p;
  const double d = 1e-5;
  for (double t : {0.05, 0.2}) {
    for (double x : {0.3, 0.45, 0.6}) {
      for (double y : {0.3, 0.5}) {
        const double ut = (p.exact(x, y, t + d) - p.exact(x, y, t - d)) / (2 * d);
        const double ux = (p.exact(x + d, y, t) - p.exact(x - d, y, t)) / (2 * d);
        const double uy = (p.exact(x, y + d, t) - p.exact(x, y - d, t)) / (2 * d);
        const double uxx =
            (p.exact(x + d, y, t) - 2 * p.exact(x, y, t) + p.exact(x - d, y, t)) / (d * d);
        const double uyy =
            (p.exact(x, y + d, t) - 2 * p.exact(x, y, t) + p.exact(x, y - d, t)) / (d * d);
        const double residual = ut + p.ax * ux + p.ay * uy - p.eps * (uxx + uyy);
        EXPECT_NEAR(residual, 0.0, 1e-4) << "at (" << x << "," << y << "," << t << ")";
      }
    }
  }
}

TEST(Problem, InitialConditionIsThePulse) {
  TransportProblem p;
  EXPECT_NEAR(p.initial(p.x0, p.y0), p.amplitude, 1e-12);
  EXPECT_LT(p.initial(p.x0 + 5 * p.sigma, p.y0), 1e-8);
}

TEST(Problem, MassDecaysAndCentreAdvects) {
  TransportProblem p;
  // Peak amplitude decays like sigma^2/(sigma^2+4 eps t).
  const double t = 0.3;
  const double cx = p.x0 + p.ax * t, cy = p.y0 + p.ay * t;
  const double expected = p.amplitude * p.sigma * p.sigma / (p.sigma * p.sigma + 4 * p.eps * t);
  EXPECT_NEAR(p.exact(cx, cy, t), expected, 1e-12);
  EXPECT_GT(p.exact(cx, cy, t), p.exact(cx + 0.1, cy, t));
}

TEST(Problem, CellPecletScalesWithH) {
  TransportProblem p;
  EXPECT_NEAR(p.cell_peclet(0.1), std::max(p.ax, p.ay) * 0.1 / p.eps, 1e-12);
  EXPECT_GT(p.cell_peclet(0.2), p.cell_peclet(0.1));
}

TEST(Problem, DescribeMentionsParameters) {
  const std::string d = TransportProblem{}.describe();
  EXPECT_NE(d.find("eps"), std::string::npos);
}

// ---- discretisation -------------------------------------------------------------

TEST(System, DimensionsMatchInterior) {
  const grid::Grid2D g(2, 1, 0);
  TransportSystem system(g, TransportProblem{});
  EXPECT_EQ(system.dimension(), g.interior_count());
  EXPECT_EQ(system.jacobian().rows(), g.interior_count());
}

TEST(System, JacobianHasFivePointPattern) {
  const grid::Grid2D g(2, 1, 1);
  TransportSystem system(g, TransportProblem{});
  const auto& a = system.jacobian();
  // Interior-of-interior rows have 5 entries; corner interior rows have 3.
  std::size_t max_nnz_in_row = 0, min_nnz_in_row = 99;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t c = a.row_ptr()[i + 1] - a.row_ptr()[i];
    max_nnz_in_row = std::max(max_nnz_in_row, c);
    min_nnz_in_row = std::min(min_nnz_in_row, c);
  }
  EXPECT_EQ(max_nnz_in_row, 5u);
  EXPECT_EQ(min_nnz_in_row, 3u);
}

TEST(System, RhsIsAffineInU) {
  // The problem is linear: F(t, u) = J u + g(t), so F(t,u1) - F(t,u0) = J(u1-u0).
  const grid::Grid2D g(2, 1, 1);
  TransportSystem system(g, TransportProblem{});
  const std::size_t n = system.dimension();
  ros::Vec u0(n, 0.2), u1(n), f0, f1, ju;
  for (std::size_t i = 0; i < n; ++i) u1[i] = 0.2 + 0.01 * static_cast<double>(i % 7);
  system.rhs(0.1, u0, f0);
  system.rhs(0.1, u1, f1);
  ros::Vec du(n);
  for (std::size_t i = 0; i < n; ++i) du[i] = u1[i] - u0[i];
  system.jacobian().multiply(du, ju);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(f1[i] - f0[i], ju[i], 1e-12);
}

TEST(System, RhsVanishesOnExactSteadyStencil) {
  // With the exact solution sampled at nodes, the discrete rhs approximates
  // u_t; for a fine grid it must be close to the analytic u_t.
  TransportProblem p;
  const grid::Grid2D g(2, 4, 4);
  TransportSystem system(g, p);
  grid::Field init(g);
  const double t = 0.1;
  init.sample([&](double x, double y) { return p.exact(x, y, t); });
  ros::Vec u = system.restrict_interior(init);
  ros::Vec f;
  system.rhs(t, u, f);
  const double d = 1e-6;
  double max_err = 0.0;
  for (std::size_t j = 2; j < g.interior_y(); j += 3) {
    for (std::size_t i = 2; i < g.interior_x(); i += 3) {
      const double x = g.x(i), y = g.y(j);
      const double ut = (p.exact(x, y, t + d) - p.exact(x, y, t - d)) / (2 * d);
      max_err = std::max(max_err, std::abs(f[g.interior_index(i, j)] - ut));
    }
  }
  EXPECT_LT(max_err, 0.05);  // O(h^2) truncation at h = 1/32
}

TEST(System, ExpandRestrictRoundTrip) {
  const grid::Grid2D g(2, 1, 2);
  TransportProblem p;
  TransportSystem system(g, p);
  grid::Field f(g);
  f.sample([&](double x, double y) { return p.exact(x, y, 0.25); });
  const ros::Vec u = system.restrict_interior(f);
  const grid::Field back = system.expand(u, 0.25);
  EXPECT_LT(back.max_diff(f), 1e-14);  // boundary refilled from exact data
}

TEST(System, UpwindStencilIsAnMMatrix) {
  // Upwind + diffusion: off-diagonals of J are >= 0, diagonal < 0 (so
  // I - gamma h J is an M-matrix for any h > 0).
  const grid::Grid2D g(2, 1, 1);
  SystemOptions options;
  options.scheme = AdvectionScheme::Upwind1;
  TransportSystem system(g, TransportProblem{}, options);
  const auto& a = system.jacobian();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      if (a.col_idx()[k] == i) {
        EXPECT_LT(a.values()[k], 0.0);
      } else {
        EXPECT_GE(a.values()[k], 0.0);
      }
    }
  }
}

TEST(System, BandedStageSolveRunsAlongTheShortAxis) {
  // G(2;6,0), its mirror G(2;0,6) and the square G(2;3,3): 255x3, 3x255 and
  // 31x31 interiors.  The band half-width is the short side, and the
  // permuted solve still solves (I - gamma*h*J) x = b in the grid's own
  // x-fastest numbering.
  const double gamma_h = 0.01;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const grid::Grid2D g : {grid::Grid2D(2, 6, 0), grid::Grid2D(2, 0, 6),
                               grid::Grid2D(2, 3, 3)}) {
    SCOPED_TRACE(g.name());
    const std::size_t nx = g.interior_x(), ny = g.interior_y();
    TransportSystem system(g, TransportProblem{});
    const linalg::CsrMatrix stage = linalg::shifted_identity(system.jacobian(), 1.0, -gamma_h);
    ros::Vec b(system.dimension());
    for (double& v : b) v = dist(rng);

    linalg::GridBandedLU lu(nx, ny);
    EXPECT_EQ(lu.half_bandwidth(), std::min(nx, ny));
    lu.assign_shifted_csr(system.jacobian(), 1.0, -gamma_h);
    lu.factorize();
    ros::Vec x, ax;
    lu.solve(b, x);
    stage.multiply(x, ax);
    double residual = 0.0;
    for (std::size_t r = 0; r < b.size(); ++r) {
      residual = std::max(residual, std::abs(ax[r] - b[r]));
    }
    EXPECT_LE(residual, 1e-12);

    // The rebuild path orders the band the same way, so it solves bitwise
    // alike, and so does the stage solver the system hands to ROS2.
    linalg::GridBandedLU rebuilt = linalg::GridBandedLU::from_csr(stage, nx, ny);
    rebuilt.factorize();
    ros::Vec xr, xs;
    rebuilt.solve(b, xr);
    ASSERT_EQ(xr.size(), x.size());
    EXPECT_EQ(std::memcmp(xr.data(), x.data(), x.size() * sizeof(double)), 0);
    system.prepare_stage(0.0, b, gamma_h)->solve(b, xs);
    ASSERT_EQ(xs.size(), x.size());
    EXPECT_EQ(std::memcmp(xs.data(), x.data(), x.size() * sizeof(double)), 0);
  }
}

// ---- subsolve -------------------------------------------------------------------

TEST(Subsolve, ConvergesToAnalyticSolution) {
  SubsolveConfig config;
  config.le_tol = 1e-5;
  const grid::Grid2D g(2, 3, 3);
  const auto r = subsolve(g, config);
  const auto& p = config.problem;
  const double err =
      r.solution.max_error([&](double x, double y) { return p.exact(x, y, config.t1); });
  EXPECT_LT(err, 0.02);
  EXPECT_GT(r.stats.accepted, 0u);
}

TEST(Subsolve, SpatialErrorDecreasesWithRefinement) {
  SubsolveConfig config;
  config.le_tol = 1e-7;  // so spatial error dominates
  const auto& p = config.problem;
  double prev = 1e9;
  for (int l = 1; l <= 3; ++l) {
    const auto r = subsolve(grid::Grid2D(2, l, l), config);
    const double err =
        r.solution.max_error([&](double x, double y) { return p.exact(x, y, config.t1); });
    EXPECT_LT(err, prev);
    prev = err;
  }
}

TEST(Subsolve, IsDeterministic) {
  SubsolveConfig config;
  config.le_tol = 1e-3;
  const grid::Grid2D g(2, 2, 1);
  const auto a = subsolve(g, config);
  const auto b = subsolve(g, config);
  EXPECT_EQ(a.solution.max_diff(b.solution), 0.0);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(Subsolve, SolverKindsAgreeWithinKrylovTolerance) {
  SubsolveConfig banded_config;
  banded_config.le_tol = 1e-4;
  SubsolveConfig krylov_config = banded_config;
  krylov_config.system.solver = StageSolverKind::BiCgStabIlu0;
  krylov_config.system.krylov.rel_tol = 1e-12;
  const grid::Grid2D g(2, 2, 2);
  const auto a = subsolve(g, banded_config);
  const auto b = subsolve(g, krylov_config);
  EXPECT_LT(a.solution.max_diff(b.solution), 1e-6);
}

TEST(Subsolve, TighterToleranceTakesMoreSteps) {
  const grid::Grid2D g(2, 2, 2);
  SubsolveConfig loose;
  loose.le_tol = 1e-3;
  SubsolveConfig tight;
  tight.le_tol = 1e-5;
  EXPECT_GT(subsolve(g, tight).stats.accepted, subsolve(g, loose).stats.accepted);
}

TEST(Subsolve, PayloadBytesScaleWithNodes) {
  const grid::Grid2D small(2, 0, 0), big(2, 3, 3);
  EXPECT_GT(subsolve_payload_bytes(big), subsolve_payload_bytes(small));
  EXPECT_EQ(subsolve_payload_bytes(small), small.node_count() * sizeof(double) + 128);
}

// ---- spatial convergence orders per scheme ----------------------------------------

struct SchemeOrder {
  AdvectionScheme scheme;
  double min_order;  ///< observed order between levels 2 and 3, lower bound
  double max_order;
};

// Names the test instance by its scheme.  gtest's default prints the raw
// bytes, padding included, so the name would change from run to run.
void PrintTo(const SchemeOrder& param, std::ostream* os) { *os << to_string(param.scheme); }

class SchemeConvergence : public ::testing::TestWithParam<SchemeOrder> {};

TEST_P(SchemeConvergence, ObservedOrderIsInTheExpectedBand) {
  const auto param = GetParam();
  SubsolveConfig config;
  config.le_tol = 1e-6;  // time error negligible; spatial error dominates
  config.system.scheme = param.scheme;
  const auto& p = config.problem;
  auto exact = [&](double x, double y) { return p.exact(x, y, config.t1); };
  const double e2 = subsolve(grid::Grid2D(2, 2, 2), config).solution.max_error(exact);
  const double e3 = subsolve(grid::Grid2D(2, 3, 3), config).solution.max_error(exact);
  const double order = std::log2(e2 / e3);
  EXPECT_GE(order, param.min_order) << to_string(param.scheme);
  EXPECT_LE(order, param.max_order) << to_string(param.scheme);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConvergence,
    ::testing::Values(SchemeOrder{AdvectionScheme::Upwind1, 0.4, 1.3},
                      SchemeOrder{AdvectionScheme::Central2, 1.6, 2.4},
                      SchemeOrder{AdvectionScheme::ThirdOrderKoren, 2.1, 3.2}));

TEST(SchemeConvergenceOrdering, AccuracyRanksAsExpected) {
  SubsolveConfig config;
  config.le_tol = 1e-6;
  const auto& p = config.problem;
  auto exact = [&](double x, double y) { return p.exact(x, y, config.t1); };
  const grid::Grid2D g(2, 3, 3);
  std::map<AdvectionScheme, double> err;
  for (auto s : {AdvectionScheme::Upwind1, AdvectionScheme::Central2,
                 AdvectionScheme::ThirdOrderKoren}) {
    config.system.scheme = s;
    err[s] = subsolve(g, config).solution.max_error(exact);
  }
  EXPECT_LT(err[AdvectionScheme::ThirdOrderKoren], err[AdvectionScheme::Central2]);
  EXPECT_LT(err[AdvectionScheme::Central2], err[AdvectionScheme::Upwind1]);
}

// ---- the sequential program (§3) -------------------------------------------------

TEST(SeqSolver, VisitsTwoLevelPlusOneGrids) {
  ProgramConfig config;
  config.level = 3;
  const auto result = solve_sequential(config);
  EXPECT_EQ(result.records.size(), 7u);  // w = 2l + 1
}

TEST(SeqSolver, RecordsFollowPaperVisitOrder) {
  ProgramConfig config;
  config.level = 2;
  const auto result = solve_sequential(config);
  // lm = 1 family first: (0,1), (1,0); then lm = 2: (0,2), (1,1), (2,0).
  ASSERT_EQ(result.records.size(), 5u);
  EXPECT_EQ(result.records[0].grid, grid::Grid2D(2, 0, 1));
  EXPECT_EQ(result.records[1].grid, grid::Grid2D(2, 1, 0));
  EXPECT_EQ(result.records[2].grid, grid::Grid2D(2, 0, 2));
  EXPECT_EQ(result.records[4].grid, grid::Grid2D(2, 2, 0));
  EXPECT_DOUBLE_EQ(result.records[0].coefficient, -1.0);
  EXPECT_DOUBLE_EQ(result.records[2].coefficient, 1.0);
}

TEST(SeqSolver, CombinedSolutionApproximatesAnalytic) {
  ProgramConfig config;
  config.level = 4;
  config.le_tol = 1e-5;
  const auto result = solve_sequential(config);
  const auto& p = config.kernel.problem;
  const double t1 = config.kernel.t1;
  const double err =
      result.combined.max_error([&](double x, double y) { return p.exact(x, y, t1); });
  EXPECT_LT(err, 0.05);
}

TEST(SeqSolver, CombinationBeatsCoarsestComponent) {
  ProgramConfig config;
  config.level = 4;
  config.le_tol = 1e-6;
  const auto result = solve_sequential(config);
  const auto& p = config.kernel.problem;
  const double t1 = config.kernel.t1;
  const double combined_err =
      result.combined.l2_error([&](double x, double y) { return p.exact(x, y, t1); });

  // Single coarsest-family grid prolongated to the same fine grid.
  const auto r0 = subsolve(grid::Grid2D(2, 0, config.level), config.kernel_config());
  const double single_err = grid::prolongate(r0.solution, grid::finest_grid(2, config.level))
                                .l2_error([&](double x, double y) { return p.exact(x, y, t1); });
  EXPECT_LT(combined_err, single_err);
}

TEST(SeqSolver, TimingBreakdownIsConsistent) {
  ProgramConfig config;
  config.level = 2;
  const auto result = solve_sequential(config);
  EXPECT_GE(result.subsolve_seconds, 0.0);
  EXPECT_GE(result.prolongation_seconds, 0.0);
  EXPECT_GE(result.total_seconds,
            result.subsolve_seconds + result.prolongation_seconds - 1e-6);
  EXPECT_GT(result.total_accepted_steps(), 0u);
  EXPECT_GT(result.total_stage_solves(), 0u);
}

TEST(SeqSolver, LevelZeroRunsSingleGrid) {
  ProgramConfig config;
  config.level = 0;
  const auto result = solve_sequential(config);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.combined.grid(), grid::Grid2D(2, 0, 0));
}

TEST(GlobalDataStructure, TracksCompleteness) {
  GlobalData data(2, 1);
  EXPECT_FALSE(data.complete());
  for (std::size_t k = 0; k < data.terms.size(); ++k) {
    data.store(k, grid::Field(data.terms[k].grid));
  }
  EXPECT_TRUE(data.complete());
}

TEST(GlobalDataStructure, StoreValidatesGrid) {
  GlobalData data(2, 1);
  EXPECT_THROW(data.store(0, grid::Field(grid::Grid2D(2, 3, 3))),
               mg::support::ContractViolation);
}

}  // namespace

#include "transport/rotating.hpp"

#include <cmath>

#include "linalg/banded.hpp"
#include "support/check.hpp"

namespace mg::transport {

double RotatingConeProblem::exact(double x, double y, double t) const {
  // Rotate the evaluation point backwards by omega*t, then evaluate the
  // initial cone (centred at (cx + r0, cy)).
  const double c = std::cos(-omega * t);
  const double s = std::sin(-omega * t);
  const double dx = x - cx;
  const double dy = y - cy;
  const double xr = cx + c * dx - s * dy;
  const double yr = cy + s * dx + c * dy;
  const double px = xr - (cx + r0);
  const double py = yr - cy;
  return amplitude * std::exp(-(px * px + py * py) / (sigma * sigma));
}

RotatingConeSystem::RotatingConeSystem(grid::Grid2D grid, RotatingConeProblem problem)
    : grid_(grid), problem_(problem) {
  assemble();
}

void RotatingConeSystem::assemble() {
  const std::size_t nx = grid_.interior_x();
  const std::size_t ny = grid_.interior_y();
  const double hx = grid_.hx();
  const double hy = grid_.hy();

  linalg::CsrBuilder builder(nx * ny, nx * ny);
  for (std::size_t j = 1; j <= ny; ++j) {
    for (std::size_t i = 1; i <= nx; ++i) {
      const std::size_t row = grid_.interior_index(i, j);
      const double ax = problem_.velocity_x(grid_.x(i), grid_.y(j));
      const double ay = problem_.velocity_y(grid_.x(i), grid_.y(j));
      // Per-node upwind weights (the velocity varies over the grid).
      const double axp = ax > 0.0 ? ax : 0.0, axm = ax < 0.0 ? -ax : 0.0;
      const double ayp = ay > 0.0 ? ay : 0.0, aym = ay < 0.0 ? -ay : 0.0;
      const double wW = axp / hx, wE = axm / hx, wS = ayp / hy, wN = aym / hy;
      const double wC = -(axp + axm) / hx - (ayp + aym) / hy;
      builder.add(row, row, wC);
      // Homogeneous Dirichlet boundary: couplings to boundary nodes vanish.
      if (i > 1) builder.add(row, grid_.interior_index(i - 1, j), wW);
      if (i < nx) builder.add(row, grid_.interior_index(i + 1, j), wE);
      if (j > 1) builder.add(row, grid_.interior_index(i, j - 1), wS);
      if (j < ny) builder.add(row, grid_.interior_index(i, j + 1), wN);
    }
  }
  jacobian_ = builder.build();
}

void RotatingConeSystem::rhs(double /*t*/, const ros::Vec& u, ros::Vec& f) {
  MG_REQUIRE(u.size() == dimension());
  jacobian_.multiply(u, f);
}

std::unique_ptr<ros::StageSolver> RotatingConeSystem::prepare_stage(double /*t*/,
                                                                    const ros::Vec& u,
                                                                    double gamma_h) {
  MG_REQUIRE(u.size() == dimension());
  class Solver final : public ros::StageSolver {
   public:
    explicit Solver(linalg::GridBandedLU m) : matrix_(std::move(m)) { matrix_.factorize(); }
    void solve(const ros::Vec& rhs, ros::Vec& x) override { matrix_.solve(rhs, x); }

   private:
    linalg::GridBandedLU matrix_;
  };
  linalg::CsrMatrix stage = linalg::shifted_identity(jacobian_, 1.0, -gamma_h);
  return std::make_unique<Solver>(
      linalg::GridBandedLU::from_csr(stage, grid_.interior_x(), grid_.interior_y()));
}

grid::Field RotatingConeSystem::expand(const ros::Vec& u) const {
  MG_REQUIRE(u.size() == dimension());
  grid::Field field(grid_, 0.0);
  for (std::size_t j = 1; j <= grid_.interior_y(); ++j) {
    for (std::size_t i = 1; i <= grid_.interior_x(); ++i) {
      field.at(i, j) = u[grid_.interior_index(i, j)];
    }
  }
  return field;
}

ros::Vec RotatingConeSystem::restrict_interior(const grid::Field& field) const {
  MG_REQUIRE(field.grid() == grid_);
  ros::Vec u(dimension());
  for (std::size_t j = 1; j <= grid_.interior_y(); ++j) {
    for (std::size_t i = 1; i <= grid_.interior_x(); ++i) {
      u[grid_.interior_index(i, j)] = field.at(i, j);
    }
  }
  return u;
}

RotatingRunResult solve_rotating_cone(const grid::Grid2D& g, const RotatingConeProblem& problem,
                                      double tol, double t1) {
  RotatingConeSystem system(g, problem);
  grid::Field init(g);
  init.sample([&](double x, double y) { return problem.initial(x, y); });
  ros::Vec u = system.restrict_interior(init);

  ros::Ros2Options opts;
  opts.tol = tol;
  opts.t1 = t1;
  const ros::Ros2Stats stats = ros::integrate(system, u, opts);

  grid::Field solution = system.expand(u);
  const double err =
      solution.max_error([&](double x, double y) { return problem.exact(x, y, t1); });
  return {std::move(solution), stats, err};
}

}  // namespace mg::transport

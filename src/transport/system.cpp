#include "transport/system.hpp"

#include <stdexcept>

#include "linalg/precond.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "transport/koren.hpp"

namespace mg::transport {

namespace {
struct StageMetrics {
  obs::Counter& preparations = obs::registry().counter("linalg.stage_preparations");
  obs::Histogram& assemble_seconds = obs::registry().histogram("linalg.stage_assemble_seconds");
  obs::Histogram& factor_seconds = obs::registry().histogram("linalg.stage_factor_seconds");
  obs::Histogram& solve_seconds = obs::registry().histogram("linalg.stage_solve_seconds");
  obs::Counter& cache_hits = obs::registry().counter("linalg.stage_cache.hits");
  obs::Counter& cache_misses = obs::registry().counter("linalg.stage_cache.misses");
  obs::Counter& cache_refreshes = obs::registry().counter("linalg.stage_cache.refreshes");
};

StageMetrics& stage_metrics() {
  static StageMetrics m;
  return m;
}
}  // namespace

const char* to_string(StageSolverKind k) {
  switch (k) {
    case StageSolverKind::BandedLU: return "banded-lu";
    case StageSolverKind::BiCgStabIlu0: return "bicgstab+ilu0";
  }
  return "?";
}

TransportSystem::TransportSystem(grid::Grid2D grid, TransportProblem problem, SystemOptions options)
    : grid_(grid), problem_(problem), options_(options) {
  assemble();
}

void TransportSystem::assemble() {
  const std::size_t nx = grid_.interior_x();
  const std::size_t ny = grid_.interior_y();
  const double hx = grid_.hx();
  const double hy = grid_.hy();
  const double eps = problem_.eps;
  const double ax = problem_.ax;
  const double ay = problem_.ay;

  // Stencil weights: contribution of neighbour value to du_ij/dt.
  double wW, wE, wS, wN, wC;  // west, east, south, north, centre
  const double dxx = eps / (hx * hx);
  const double dyy = eps / (hy * hy);
  if (options_.scheme == AdvectionScheme::Central2) {
    wW = dxx + ax / (2.0 * hx);
    wE = dxx - ax / (2.0 * hx);
    wS = dyy + ay / (2.0 * hy);
    wN = dyy - ay / (2.0 * hy);
    wC = -2.0 * dxx - 2.0 * dyy;
  } else {  // Upwind1, and the stage-matrix Jacobian for ThirdOrderKoren
            // (ROS2 is a W-method: the first-order upwind operator is a
            // valid A for the limited third-order right-hand side)
    // -a du/dx with upwinding: for ax > 0 use (u_ij - u_{i-1,j})/hx.
    const double axp = ax > 0.0 ? ax : 0.0;  // positive part
    const double axm = ax < 0.0 ? -ax : 0.0; // magnitude of negative part
    const double ayp = ay > 0.0 ? ay : 0.0;
    const double aym = ay < 0.0 ? -ay : 0.0;
    wW = dxx + axp / hx;
    wE = dxx + axm / hx;
    wS = dyy + ayp / hy;
    wN = dyy + aym / hy;
    wC = -2.0 * dxx - 2.0 * dyy - axp / hx - axm / hx - ayp / hy - aym / hy;
  }

  stencil_ = {nx, ny, wS, wW, wC, wE, wN};
  jacobian_ = stencil_.matrix();
  // A neighbour on the boundary carries Dirichlet data, not an unknown.  Per
  // row the couplings keep the order W, E, S, N, in which rhs adds a corner
  // node's two terms.
  boundary_couplings_.clear();
  for (std::size_t j = 1; j <= ny; ++j) {
    for (std::size_t i = 1; i <= nx; ++i) {
      const std::size_t row = grid_.interior_index(i, j);
      if (i == 1) boundary_couplings_.push_back({row, wW, grid_.x(i - 1), grid_.y(j)});
      if (i == nx) boundary_couplings_.push_back({row, wE, grid_.x(i + 1), grid_.y(j)});
      if (j == 1) boundary_couplings_.push_back({row, wS, grid_.x(i), grid_.y(j - 1)});
      if (j == ny) boundary_couplings_.push_back({row, wN, grid_.x(i), grid_.y(j + 1)});
    }
  }

  // The stage matrix (I - gamma*h*J) has exactly the Jacobian's pattern (the
  // diagonal is always present: wC is added for every row), so its values
  // can be refreshed in place each step via this offset map.
  diag_offset_ = jacobian_.diagonal_offsets();
  for (std::size_t off : diag_offset_) {
    MG_ASSERT(off != linalg::CsrMatrix::kNoDiagonal);
  }
  boundary_t_ = std::numeric_limits<double>::quiet_NaN();
  cached_solver_.reset();
  cache_valid_ = false;
}

void TransportSystem::rhs(double t, const ros::Vec& u, ros::Vec& f) {
  MG_REQUIRE(u.size() == dimension());
  if (options_.scheme == AdvectionScheme::ThirdOrderKoren) {
    // Nonlinear limited scheme: evaluate flux-form on the full nodal field
    // (boundary nodes carry the Dirichlet data at time t).
    nodal_scratch_.resize(grid_.node_count());
    for (std::size_t j = 0; j < grid_.nodes_y(); ++j) {
      for (std::size_t i = 0; i < grid_.nodes_x(); ++i) {
        nodal_scratch_[grid_.node_index(i, j)] =
            grid_.is_boundary(i, j) ? problem_.exact(grid_.x(i), grid_.y(j), t)
                                    : u[grid_.interior_index(i, j)];
      }
    }
    koren_rhs(grid_, problem_, nodal_scratch_, f);
    return;
  }
  stencil_.multiply(u, f);
  if (t != boundary_t_) {
    for (auto& bc : boundary_couplings_) bc.term = bc.coefficient * problem_.exact(bc.bx, bc.by, t);
    boundary_t_ = t;
  }
  for (const auto& bc : boundary_couplings_) f[bc.row] += bc.term;
}

namespace {

/// Direct stage solver; the band runs along the grid's short axis
/// (linalg::GridBandedLU).  The band storage is allocated once; refresh()
/// fills it.
class BandedStageSolver final : public ros::StageSolver {
 public:
  explicit BandedStageSolver(const grid::Grid2D& grid)
      : matrix_(grid.interior_x(), grid.interior_y()) {}

  /// Rewrites the band as (I - gamma_h * J) and refactorises, all in the
  /// storage allocated at construction.
  void refresh(const linalg::CsrMatrix& jacobian, double gamma_h) {
    support::Stopwatch clock;
    matrix_.assign_shifted_csr(jacobian, 1.0, -gamma_h);
    stage_metrics().assemble_seconds.observe(clock.elapsed_seconds());
    clock.reset();
    matrix_.factorize();
    stage_metrics().factor_seconds.observe(clock.elapsed_seconds());
  }

  void solve(const ros::Vec& rhs, ros::Vec& x) override {
    support::Stopwatch clock;
    matrix_.solve(rhs, x);
    stage_metrics().solve_seconds.observe(clock.elapsed_seconds());
  }

 private:
  linalg::GridBandedLU matrix_;
};

class KrylovStageSolver final : public ros::StageSolver {
 public:
  KrylovStageSolver(linalg::CsrMatrix matrix, linalg::SolveOptions opts)
      : matrix_(std::move(matrix)), opts_(opts) {
    build_preconditioner();
  }

  /// Overwrites the stage values in place as (I - gamma_h * J) — same
  /// pattern, so only the value array is touched — then rebuilds the
  /// preconditioner for the new values.
  void refresh(const linalg::CsrMatrix& jacobian, const std::vector<std::size_t>& diag_offset,
               double gamma_h) {
    support::Stopwatch clock;
    const double scale = -gamma_h;
    const std::size_t nnz = matrix_.nnz();
    const double* __restrict jv = jacobian.values().data();
    double* __restrict sv = matrix_.values().data();
    for (std::size_t k = 0; k < nnz; ++k) sv[k] = scale * jv[k];
    for (std::size_t off : diag_offset) sv[off] += 1.0;
    stage_metrics().assemble_seconds.observe(clock.elapsed_seconds());
    build_preconditioner();
  }

  void solve(const ros::Vec& rhs, ros::Vec& x) override {
    // An unexpectedly-sized x never carries a meaningful guess; otherwise the
    // caller's x IS the warm start (under ROS2: last step's k for stage 1,
    // this step's k1 for stage 2).
    if (x.size() != matrix_.rows()) x.assign(matrix_.rows(), 0.0);
    support::Stopwatch clock;
    const auto report = linalg::bicgstab(matrix_, rhs, x, *precond_, opts_, &workspace_);
    stage_metrics().solve_seconds.observe(clock.elapsed_seconds());
    if (!report.converged) {
      throw std::runtime_error("TransportSystem: BiCGSTAB failed to converge (residual " +
                               std::to_string(report.residual_norm) + ")");
    }
  }

 private:
  void build_preconditioner() {
    support::Stopwatch clock;
    precond_ = std::make_unique<linalg::Ilu0Preconditioner>(matrix_);
    stage_metrics().factor_seconds.observe(clock.elapsed_seconds());
  }

  linalg::CsrMatrix matrix_;
  linalg::SolveOptions opts_;
  std::unique_ptr<linalg::Ilu0Preconditioner> precond_;
  linalg::KrylovWorkspace workspace_;
};

/// Thin handle prepare_stage returns on a cache hit/refresh: the solver —
/// matrix storage, factors, Krylov workspace — lives in the TransportSystem
/// and survives across steps.
class SharedStageSolver final : public ros::StageSolver {
 public:
  explicit SharedStageSolver(std::shared_ptr<ros::StageSolver> inner)
      : inner_(std::move(inner)) {}
  void solve(const ros::Vec& rhs, ros::Vec& x) override { inner_->solve(rhs, x); }

 private:
  std::shared_ptr<ros::StageSolver> inner_;
};

}  // namespace

std::unique_ptr<ros::StageSolver> TransportSystem::prepare_stage(double /*t*/, const ros::Vec& u,
                                                                 double gamma_h) {
  MG_REQUIRE(u.size() == dimension());
  StageMetrics& metrics = stage_metrics();
  metrics.preparations.add();

  // Hit: gamma*h is unchanged, reuse matrix, factors and workspace outright.
  if (cache_valid_ && gamma_h == cached_gamma_h_) {
    ++cache_stats_.hits;
    metrics.cache_hits.add();
    return std::make_unique<SharedStageSolver>(cached_solver_);
  }

  // Miss (first build) or refresh (gamma*h changed): update values in place
  // through the cached solver's storage and refactorise.
  if (cache_valid_) {
    ++cache_stats_.refreshes;
    metrics.cache_refreshes.add();
  } else {
    ++cache_stats_.misses;
    metrics.cache_misses.add();
  }
  switch (options_.solver) {
    case StageSolverKind::BandedLU: {
      if (!cached_solver_) {
        cached_solver_ = std::make_shared<BandedStageSolver>(grid_);
      }
      static_cast<BandedStageSolver&>(*cached_solver_).refresh(jacobian_, gamma_h);
      break;
    }
    case StageSolverKind::BiCgStabIlu0: {
      if (!cached_solver_) {
        // First build goes through shifted_identity once to stamp out the
        // stage pattern (== Jacobian pattern); refresh() then touches only
        // the value array.  The stamp counts as assembly.
        support::Stopwatch assemble_clock;
        linalg::CsrMatrix stage = linalg::shifted_identity(jacobian_, 1.0, -gamma_h);
        stage_metrics().assemble_seconds.observe(assemble_clock.elapsed_seconds());
        cached_solver_ = std::make_shared<KrylovStageSolver>(std::move(stage), options_.krylov);
      } else {
        static_cast<KrylovStageSolver&>(*cached_solver_)
            .refresh(jacobian_, diag_offset_, gamma_h);
      }
      break;
    }
  }
  cached_gamma_h_ = gamma_h;
  cache_valid_ = true;
  return std::make_unique<SharedStageSolver>(cached_solver_);
}

ros::Vec TransportSystem::restrict_interior(const grid::Field& field) const {
  MG_REQUIRE(field.grid() == grid_);
  ros::Vec u(dimension());
  for (std::size_t j = 1; j <= grid_.interior_y(); ++j) {
    for (std::size_t i = 1; i <= grid_.interior_x(); ++i) {
      u[grid_.interior_index(i, j)] = field.at(i, j);
    }
  }
  return u;
}

grid::Field TransportSystem::expand(const ros::Vec& u, double t) const {
  MG_REQUIRE(u.size() == dimension());
  grid::Field field(grid_);
  for (std::size_t j = 0; j < grid_.nodes_y(); ++j) {
    for (std::size_t i = 0; i < grid_.nodes_x(); ++i) {
      if (grid_.is_boundary(i, j)) {
        field.at(i, j) = problem_.exact(grid_.x(i), grid_.y(j), t);
      } else {
        field.at(i, j) = u[grid_.interior_index(i, j)];
      }
    }
  }
  return field;
}

}  // namespace mg::transport

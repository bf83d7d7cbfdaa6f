// Semi-discretisation of the transport problem on one Grid2D, exposed as an
// OdeSystem for ROS2.
//
// Unknowns are the interior nodes in lexicographic order.  The problem is
// linear, F(t, u) = J u + g(t), where J is the (constant) 5-point stencil
// operator and g(t) carries the time-dependent Dirichlet boundary data.  rhs
// applies J from its five weights (linalg::FivePointStencil); the CSR form
// of J feeds the stage matrix.  The stage matrix (I - gamma*h*J) shares the
// Jacobian's sparsity at every step, so prepare_stage only refreshes values
// in place when gamma*h changes and reuses the factorisation outright when it
// does not — bit-identical to the paper's "A matrix must be built up ...
// again and again", which the tests rebuild as their reference (DESIGN.md
// §9).  The banded stage solver factors along the grid's short axis
// (linalg::GridBandedLU), so G(l,m) and its mirror G(m,l) cost the same.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "grid/field.hpp"
#include "grid/grid2d.hpp"
#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/csr.hpp"
#include "linalg/stencil.hpp"
#include "rosenbrock/ode_system.hpp"
#include "transport/problem.hpp"

namespace mg::transport {

/// How the Rosenbrock stage systems are solved.
enum class StageSolverKind {
  BandedLU,      ///< direct band factorisation (default; deterministic)
  BiCgStabIlu0,  ///< Krylov with ILU(0), warm-started from the caller's x
};

const char* to_string(StageSolverKind k);

struct SystemOptions {
  AdvectionScheme scheme = AdvectionScheme::Central2;
  StageSolverKind solver = StageSolverKind::BandedLU;
  linalg::SolveOptions krylov;  ///< used by the BiCGSTAB solver
};

/// Hit/miss/refresh ledger of one TransportSystem's stage cache.  A miss is
/// the first build, a refresh an in-place value update + refactorisation
/// after gamma*h changed, a hit an outright reuse of the factors.
struct StageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t refreshes = 0;
};

class TransportSystem final : public ros::OdeSystem {
 public:
  TransportSystem(grid::Grid2D grid, TransportProblem problem, SystemOptions options = {});

  std::size_t dimension() const override { return grid_.interior_count(); }
  void rhs(double t, const ros::Vec& u, ros::Vec& f) override;
  std::unique_ptr<ros::StageSolver> prepare_stage(double t, const ros::Vec& u,
                                                  double gamma_h) override;

  const grid::Grid2D& grid() const { return grid_; }
  const linalg::CsrMatrix& jacobian() const { return jacobian_; }
  /// J's five weights; jacobian() is stencil().matrix().
  const linalg::FivePointStencil& stencil() const { return stencil_; }
  const StageCacheStats& stage_cache_stats() const { return cache_stats_; }

  /// Packs a nodal field's interior values into an unknown vector.
  ros::Vec restrict_interior(const grid::Field& field) const;

  /// Expands an unknown vector to a full nodal field, filling boundary nodes
  /// with the exact Dirichlet data at time t.
  grid::Field expand(const ros::Vec& u, double t) const;

 private:
  void assemble();

  struct BoundaryCoupling {
    std::size_t row;     ///< interior unknown index
    double coefficient;  ///< stencil weight
    double bx, by;       ///< boundary node coordinates
    double term = 0.0;   ///< coefficient * exact(bx, by, boundary_t_)
  };

  grid::Grid2D grid_;
  TransportProblem problem_;
  SystemOptions options_;
  linalg::FivePointStencil stencil_;
  linalg::CsrMatrix jacobian_;
  std::vector<BoundaryCoupling> boundary_couplings_;
  // Time of the stored boundary terms.  ROS2's stage 2 evaluates rhs at
  // t + h and the next step's stage 1 at the same double, so each time level
  // evaluates the Dirichlet data once.  NaN (set by assemble()) matches no t.
  double boundary_t_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> nodal_scratch_;  ///< work array for the limited scheme

  // Stage cache: the Jacobian is time-independent, so
  // the stage matrix (I - gamma*h*J) shares its sparsity across all steps;
  // only values depend on gamma*h.  diag_offset_ maps rows to the value
  // index of their diagonal so the shift is applied in place.
  std::vector<std::size_t> diag_offset_;
  std::shared_ptr<ros::StageSolver> cached_solver_;
  double cached_gamma_h_ = 0.0;
  bool cache_valid_ = false;
  StageCacheStats cache_stats_;
};

}  // namespace mg::transport

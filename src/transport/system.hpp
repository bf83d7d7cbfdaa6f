// Semi-discretisation of the transport problem on one Grid2D, exposed as an
// OdeSystem for ROS2.
//
// Unknowns are the interior nodes in lexicographic order.  The problem is
// linear, F(t, u) = J u + g(t), where J is the (constant) 5-point stencil
// operator and g(t) carries the time-dependent Dirichlet boundary data.  The
// stage matrix (I - gamma*h*J) shares the Jacobian's sparsity at every step,
// so by default prepare_stage only refreshes values in place when gamma*h
// changes and reuses the factorisation outright when it does not — the "A
// matrix must be built up in the program which takes a lot of time" cost the
// paper describes survives as the cache_stage=false reference path.  The
// banded stage solver factors along the grid's short axis
// (linalg::GridBandedLU), so G(l,m) and its mirror G(m,l) cost the same.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "grid/field.hpp"
#include "grid/grid2d.hpp"
#include "linalg/banded.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/csr.hpp"
#include "linalg/kernels.hpp"
#include "linalg/parallel.hpp"
#include "rosenbrock/ode_system.hpp"
#include "transport/problem.hpp"

namespace mg::transport {

/// How the Rosenbrock stage systems are solved.
enum class StageSolverKind {
  BandedLU,       ///< direct band factorisation (default; deterministic)
  BiCgStabIlu0,   ///< Krylov with ILU(0)
  BiCgStabJacobi, ///< Krylov with diagonal preconditioning
};

const char* to_string(StageSolverKind k);

struct SystemOptions {
  AdvectionScheme scheme = AdvectionScheme::Central2;
  StageSolverKind solver = StageSolverKind::BandedLU;
  linalg::SolveOptions krylov;  ///< used by the BiCGSTAB variants
  /// Cache the stage matrix and its factorisation/preconditioner across
  /// steps: values are refreshed in place when gamma*h changes and reused
  /// outright when it does not.  Bit-identical to rebuilding every step
  /// (DESIGN.md §9); off = the seed's rebuild-every-step reference path.
  bool cache_stage = true;
  /// Seed Krylov stage solves from the caller's x (the previous stage's
  /// solution under ROS2) instead of zero.  Changes iteration counts, never
  /// the convergence tolerance; no effect on the direct (banded) solver.
  bool warm_start = true;
  /// Kernel policy for the linalg hot paths (DESIGN.md §14): Scalar runs the
  /// plain scalar loops, Tiled the SIMD/interleaved kernels.  Results are
  /// bitwise identical either way — this is a pure performance knob.
  linalg::KernelPolicy kernel_policy = linalg::KernelPolicy::Scalar;
  /// Within-grid parallelism: size of the inner worker team that one solve
  /// spans (row-partitioned SpMV, fused triads, wavefront preconditioner
  /// sweeps).  1 = no team.  Any size yields bit-identical results; helper
  /// threads beyond the host's capacity are elided, not queued.
  std::uint32_t inner_threads = 1;
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
  const StageCacheStats& stage_cache_stats() const { return cache_stats_; }

  /// Kernel context built from kernel_policy/inner_threads; the team pointer
  /// stays valid for this system's lifetime.
  linalg::KernelContext kernel_context() const {
    return {options_.kernel_policy, inner_team_.get()};
  }

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
  };

  std::unique_ptr<ros::StageSolver> rebuild_stage(double gamma_h);

  grid::Grid2D grid_;
  TransportProblem problem_;
  SystemOptions options_;
  /// Inner worker team (inner_threads > 1); declared before cached_solver_
  /// so any solver still holding the context is destroyed first.
  std::unique_ptr<linalg::ParallelContext> inner_team_;
  linalg::CsrMatrix jacobian_;
  std::vector<BoundaryCoupling> boundary_couplings_;
  std::vector<double> nodal_scratch_;  ///< work array for the limited scheme

  // Stage cache (cache_stage == true): the Jacobian is time-independent, so
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

// Banded matrix with in-place LU factorisation (no pivoting).
//
// The 5-point stencil on an nx-by-ny grid yields a band of half-width nx
// when the unknowns are numbered x-fastest and ny when they are numbered
// y-fastest; GridBandedLU picks the numbering along the grid's short axis,
// so the half-width is min(nx, ny) and LU work, ~n*hb^2, is the same for a
// grid and its mirror.  The Rosenbrock stage matrix (I - gamma*h*J) is
// strongly diagonally dominant for the step sizes the controller accepts, so
// unpivoted LU is stable here.  This is the direct baseline the iterative
// solver (BiCGSTAB) is compared against in bench/ablation.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace mg::linalg {

class BandedMatrix {
 public:
  /// n-by-n matrix with entries only where |i - j| <= half_bandwidth.
  BandedMatrix(std::size_t n, std::size_t half_bandwidth);

  /// Builds from a CSR matrix; requires every stored entry to lie in band.
  /// A non-empty `order` renumbers the unknowns: entry (i, j) of `a` lands at
  /// band position (order[i], order[j]).
  static BandedMatrix from_csr(const CsrMatrix& a, std::size_t half_bandwidth,
                               const std::vector<std::size_t>& order = {});

  /// Refills the band in place with I*scale_diag + A*scale_a (the Rosenbrock
  /// stage matrix when called with (J, 1, -gamma*h)) and clears the
  /// factorised flag so factorize() can run again — the allocation-free
  /// equivalent of from_csr(shifted_identity(a, ...), hb, order).  Requires
  /// a.rows() == size() and every (renumbered) entry of `a` in band.
  void assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a,
                          const std::vector<std::size_t>& order = {});

  std::size_t size() const { return n_; }
  std::size_t half_bandwidth() const { return hb_; }

  double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);
  void add(std::size_t i, std::size_t j, double value);

  /// y = A * x (only meaningful before factorize()).
  void multiply(const Vec& x, Vec& y) const;

  /// In-place LU (Doolittle, no pivoting).  Throws on a (near-)zero pivot.
  void factorize();

  /// Policy-aware factorisation.  Scalar is the seed loop; Tiled runs the
  /// trailing update through the SIMD mul-sub kernels with four target rows
  /// blocked against each pivot row.  The update of entry (i, j) at
  /// elimination step k is the same single multiply-subtract in either
  /// policy (steps stay outermost, elements are disjoint within a step), so
  /// the factors are bitwise identical.  The substitution sweeps in solve()
  /// are chain-serial by row and stay scalar under every policy.
  void factorize(const KernelContext& ctx);

  /// Solves A x = b using the factors; requires factorize() first.
  void solve(const Vec& b, Vec& x) const;
  /// Same, overwriting the right-hand side x with the solution.
  void solve_in_place(Vec& x) const;

  bool factorized() const { return factorized_; }

 private:
  std::size_t idx(std::size_t i, std::size_t j) const;
  bool in_band(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::size_t hb_;
  std::vector<double> data_;  // row-major band storage, width 2*hb_+1
  bool factorized_ = false;
};

/// Banded LU of an operator on the unknowns of an nx-by-ny grid that are
/// numbered x-fastest (unknown (i, j) is row j*nx + i) and coupled only to
/// their four axis neighbours — the stage matrix of a 5-point stencil.  The
/// band runs along the grid's short axis: x-fastest with half-width nx when
/// nx <= ny, otherwise y-fastest with half-width ny, the right-hand side
/// permuted in and the solution permuted out.  This is the one place that
/// decides the band ordering; square and tall grids keep the identity.
class GridBandedLU {
 public:
  /// Allocates the band; assign_shifted_csr() fills it.
  GridBandedLU(std::size_t nx, std::size_t ny);

  /// Builds from an assembled operator (the rebuild-every-step path).
  static GridBandedLU from_csr(const CsrMatrix& a, std::size_t nx, std::size_t ny);

  /// min(nx, ny).
  std::size_t half_bandwidth() const { return band_.half_bandwidth(); }

  /// BandedMatrix::assign_shifted_csr in this ordering.
  void assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a);
  void factorize(const KernelContext& ctx = {});
  /// Solves A x = b; b and x are in the grid's x-fastest numbering.
  void solve(const Vec& b, Vec& x);

 private:
  GridBandedLU(std::vector<std::size_t> order, BandedMatrix band);

  std::vector<std::size_t> order_;  ///< band position of each unknown; empty = identity
  BandedMatrix band_;
  Vec work_;  ///< right-hand side in band order (y-fastest only)
};

}  // namespace mg::linalg

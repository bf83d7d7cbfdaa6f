// The constant five-point stencil operator on a rectangular block of
// unknowns.
//
// The transport Jacobian is one such operator: every unknown couples to its
// south, west, centre, east and north neighbours with the same five weights,
// and a neighbour outside the block (a Dirichlet boundary node) is no
// coupling.  The stencil writes its CSR form straight from the weights, and
// applies itself without reading that matrix, in the same operation order as
// CsrMatrix::multiply, so both forms give the same bits.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace mg::linalg {

/// Unknowns numbered x fastest: row r = j*nx + i couples to r-nx (south),
/// r-1 (west), r (centre), r+1 (east) and r+nx (north) where those lie in
/// the nx-by-ny block.
struct FivePointStencil {
  std::size_t nx = 0;
  std::size_t ny = 0;
  double south = 0.0;
  double west = 0.0;
  double centre = 0.0;
  double east = 0.0;
  double north = 0.0;

  /// The operator as CSR: each row lists its present couplings in ascending
  /// column order S, W, C, E, N, zero weights included, so the pattern does
  /// not depend on the weights.
  CsrMatrix matrix() const;

  /// y = matrix() * x.  Each row sums its present terms from 0.0 in
  /// ascending column order — CsrMatrix::multiply's operation sequence — so
  /// the result is bitwise equal to it.  `y` is resized; it must not alias
  /// `x`.
  void multiply(const Vec& x, Vec& y) const;
};

}  // namespace mg::linalg

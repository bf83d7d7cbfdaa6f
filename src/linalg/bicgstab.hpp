// Preconditioned BiCGSTAB (van der Vorst 1992) for the nonsymmetric stage
// systems (I - gamma*h*J) x = b arising in the Rosenbrock integrator.
#pragma once

#include <cstddef>

#include "linalg/csr.hpp"
#include "linalg/precond.hpp"
#include "linalg/vector_ops.hpp"

namespace mg::linalg {

struct SolveOptions {
  double rel_tol = 1e-10;   ///< stop when ||r|| <= rel_tol * ||b||
  double abs_tol = 1e-14;   ///< ... or ||r|| <= abs_tol
  std::size_t max_iter = 500;
};

struct SolveReport {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;  ///< final true-residual norm
};

/// Scratch vectors for bicgstab().  Hoisted out of the solve so a caller
/// that solves many same-sized systems (two stage solves per Rosenbrock
/// step) pays for the nine allocations once, not per call.  Buffers are
/// resized on entry and fully overwritten before use; contents between
/// calls never influence the result.
struct KrylovWorkspace {
  Vec r, r0, p, v, s, t, phat, shat, tmp;
};

/// Solves A x = b starting from the supplied x (used as initial guess; a
/// wrongly-sized x is reset to zero).  The preconditioner must correspond
/// to (an approximation of) A.  Pass a KrylovWorkspace to reuse scratch
/// storage across calls; with ws == nullptr a local workspace is allocated.
SolveReport bicgstab(const CsrMatrix& a, const Vec& b, Vec& x, const Preconditioner& m,
                     const SolveOptions& opts = {}, KrylovWorkspace* ws = nullptr);

}  // namespace mg::linalg

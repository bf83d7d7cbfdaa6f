// Dense vector kernels used by the solvers and integrators.
//
// Vectors are plain std::vector<double>; these free functions keep the hot
// loops in one translation unit and give the benches a stable target.
#pragma once

#include <cstddef>
#include <vector>

namespace mg::linalg {

using Vec = std::vector<double>;

/// y += alpha * x.  Sizes must match.
void axpy(double alpha, const Vec& x, Vec& y);

/// y = alpha * x + beta * y.  Sizes must match.
void axpby(double alpha, const Vec& x, double beta, Vec& y);

/// Fused axpy + squared norm: out = y + alpha * x, returns dot(out, out).
/// One sweep where an axpy followed by a dot would take two — the BiCGSTAB
/// loop uses it for the s/r updates whose norms feed the convergence test.
/// `out` is resized; it must not alias `x` or `y`.
double axpy_dot(double alpha, const Vec& x, const Vec& y, Vec& out);

/// Two inner products sharing the left operand in one sweep:
/// ab = dot(a, b), ac = dot(a, c).  Sizes must match.
void dot2(const Vec& a, const Vec& b, const Vec& c, double& ab, double& ac);

/// Euclidean inner product.
double dot(const Vec& a, const Vec& b);

/// Euclidean (L2) norm.
double norm2(const Vec& v);

/// Max (L-infinity) norm.
double norm_inf(const Vec& v);

/// Weighted RMS norm used by the Rosenbrock error controller:
/// sqrt( (1/n) * sum_i (v_i / (atol + rtol*|ref_i|))^2 ).
double wrms_norm(const Vec& v, const Vec& ref, double atol, double rtol);

/// v *= alpha.
void scale(Vec& v, double alpha);

/// out = a - b.  Sizes must match; `out` is resized.
void subtract(const Vec& a, const Vec& b, Vec& out);

/// Fills with a constant.
void fill(Vec& v, double value);

/// BiCGSTAB direction update: p = r + beta * (p - omega * v).  Sizes must
/// match.
void fused_p_update(double beta, double omega, const Vec& r, const Vec& v, Vec& p);

/// BiCGSTAB solution update: x += alpha * a + omega * b.  Sizes must match.
void fused_x_update(double alpha, double omega, const Vec& a, const Vec& b, Vec& x);

}  // namespace mg::linalg

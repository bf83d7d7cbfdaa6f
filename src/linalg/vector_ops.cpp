#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mg::linalg {

void axpy(double alpha, const Vec& x, Vec& y) {
  MG_REQUIRE(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpby(double alpha, const Vec& x, double beta, Vec& y) {
  MG_REQUIRE(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

double axpy_dot(double alpha, const Vec& x, const Vec& y, Vec& out) {
  MG_REQUIRE(x.size() == y.size());
  out.resize(x.size());
  const std::size_t n = x.size();
  const double* __restrict xp = x.data();
  const double* __restrict yp = y.data();
  double* __restrict op = out.data();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = yp[i] + alpha * xp[i];
    op[i] = v;
    s += v * v;
  }
  return s;
}

void dot2(const Vec& a, const Vec& b, const Vec& c, double& ab, double& ac) {
  MG_REQUIRE(a.size() == b.size() && a.size() == c.size());
  const std::size_t n = a.size();
  const double* __restrict ap = a.data();
  const double* __restrict bp = b.data();
  const double* __restrict cp = c.data();
  double sab = 0.0, sac = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sab += ap[i] * bp[i];
    sac += ap[i] * cp[i];
  }
  ab = sab;
  ac = sac;
}

double dot(const Vec& a, const Vec& b) {
  MG_REQUIRE(a.size() == b.size());
  double s = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vec& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const Vec& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double wrms_norm(const Vec& v, const Vec& ref, double atol, double rtol) {
  MG_REQUIRE(v.size() == ref.size());
  MG_REQUIRE(atol > 0.0 || rtol > 0.0);
  if (v.empty()) return 0.0;
  double s = 0.0;
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double w = atol + rtol * std::abs(ref[i]);
    const double r = v[i] / w;
    s += r * r;
  }
  return std::sqrt(s / static_cast<double>(n));
}

void scale(Vec& v, double alpha) {
  for (double& x : v) x *= alpha;
}

void subtract(const Vec& a, const Vec& b, Vec& out) {
  MG_REQUIRE(a.size() == b.size());
  out.resize(a.size());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void fill(Vec& v, double value) { std::fill(v.begin(), v.end(), value); }

void fused_p_update(double beta, double omega, const Vec& r, const Vec& v, Vec& p) {
  MG_REQUIRE(r.size() == p.size() && v.size() == p.size());
  const std::size_t n = p.size();
  const double* __restrict rp = r.data();
  const double* __restrict vp = v.data();
  double* __restrict pp = p.data();
  for (std::size_t i = 0; i < n; ++i) pp[i] = rp[i] + beta * (pp[i] - omega * vp[i]);
}

void fused_x_update(double alpha, double omega, const Vec& a, const Vec& b, Vec& x) {
  MG_REQUIRE(a.size() == x.size() && b.size() == x.size());
  const std::size_t n = x.size();
  const double* __restrict ap = a.data();
  const double* __restrict bp = b.data();
  double* __restrict xp = x.data();
  for (std::size_t i = 0; i < n; ++i) xp[i] += alpha * ap[i] + omega * bp[i];
}

}  // namespace mg::linalg

#include "linalg/bicgstab.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace mg::linalg {

namespace {
struct BicgstabMetrics {
  obs::Counter& solves = obs::registry().counter("linalg.bicgstab_solves");
  obs::Counter& iterations = obs::registry().counter("linalg.bicgstab_iterations");
  obs::Counter& non_converged = obs::registry().counter("linalg.bicgstab_non_converged");
  obs::Histogram& solve_seconds = obs::registry().histogram("linalg.bicgstab_solve_seconds");
};

BicgstabMetrics& bicgstab_metrics() {
  static BicgstabMetrics m;
  return m;
}

struct SolveScope {
  explicit SolveScope(const SolveReport& report) : report_(report) {}
  ~SolveScope() {
    BicgstabMetrics& metrics = bicgstab_metrics();
    metrics.solves.add();
    metrics.iterations.add(report_.iterations);
    if (!report_.converged) metrics.non_converged.add();
    metrics.solve_seconds.observe(clock_.elapsed_seconds());
  }
  const SolveReport& report_;
  support::Stopwatch clock_;
};
}  // namespace

SolveReport bicgstab(const CsrMatrix& a, const Vec& b, Vec& x, const Preconditioner& m,
                     const SolveOptions& opts, KrylovWorkspace* ws) {
  MG_REQUIRE(a.rows() == a.cols());
  MG_REQUIRE(b.size() == a.rows());
  const std::size_t n = a.rows();
  if (x.size() != n) x.assign(n, 0.0);

  SolveReport report;
  // Records solves/iterations/timing on every return path.
  const SolveScope metrics_scope(report);
  const double bnorm = norm2(b);
  const double target = std::max(opts.abs_tol, opts.rel_tol * bnorm);

  KrylovWorkspace local;
  KrylovWorkspace& w = ws ? *ws : local;
  Vec &r = w.r, &r0 = w.r0, &p = w.p, &v = w.v, &s = w.s, &t = w.t;
  Vec &phat = w.phat, &shat = w.shat, &tmp = w.tmp;
  p.resize(n);
  v.resize(n);
  multiply_sub(a, b, x, r);
  r0 = r;
  double rnorm = norm2(r);
  if (rnorm <= target) {
    report.converged = true;
    report.residual_norm = rnorm;
    return report;
  }

  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;
  for (std::size_t it = 1; it <= opts.max_iter; ++it) {
    const double rho = dot(r0, r);
    if (std::abs(rho) < 1e-300) break;  // breakdown
    if (it == 1) {
      p = r;
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      // p = r + beta * (p - omega * v)
      fused_p_update(beta, omega, r, v, p);
    }
    m.apply(p, phat);
    a.multiply(phat, v);
    const double r0v = dot(r0, v);
    if (std::abs(r0v) < 1e-300) break;  // breakdown
    alpha = rho / r0v;
    // s = r - alpha * v, with ||s||^2 folded into the same sweep.
    const double snorm2 = axpy_dot(-alpha, v, r, s);
    if (std::sqrt(snorm2) <= target) {
      axpy(alpha, phat, x);
      multiply_sub(a, b, x, tmp);
      report.converged = true;
      report.iterations = it;
      report.residual_norm = norm2(tmp);
      return report;
    }
    m.apply(s, shat);
    a.multiply(shat, t);
    double tt, ts;
    dot2(t, t, s, tt, ts);
    if (tt < 1e-300) break;  // breakdown
    omega = ts / tt;
    fused_x_update(alpha, omega, phat, shat, x);
    // r = s - omega * t, again with the norm folded in.
    rnorm = std::sqrt(axpy_dot(-omega, t, s, r));
    report.iterations = it;
    if (rnorm <= target) {
      multiply_sub(a, b, x, tmp);
      report.converged = true;
      report.residual_norm = norm2(tmp);
      return report;
    }
    if (std::abs(omega) < 1e-300) break;  // breakdown
    rho_prev = rho;
  }
  multiply_sub(a, b, x, tmp);
  report.residual_norm = norm2(tmp);
  report.converged = report.residual_norm <= target;
  return report;
}

}  // namespace mg::linalg

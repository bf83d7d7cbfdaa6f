#include "cluster/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "grid/combination.hpp"
#include "support/check.hpp"

namespace mg::cluster {

namespace {
double cells_of(const grid::Grid2D& g) {
  return static_cast<double>(g.cells_x()) * static_cast<double>(g.cells_y());
}

double aspect_weight(const grid::Grid2D& g, double kappa) {
  const int mn = std::min(g.lx(), g.ly());
  return 1.0 + kappa * std::pow(2.0, mn);
}
}  // namespace

double CostModel::sequential_seconds(int root, int level, double tol, double mhz) const {
  double total = init_seconds(mhz);
  for (const auto& term : grid::combination_terms(root, level)) {
    total += subsolve_seconds(term.grid, tol, mhz);
  }
  total += prolongation_seconds(root, level, mhz);
  return total;
}

double AthlonCostModel::tol_scale(double tol) const {
  // Continuous in tol so sweeps between 1e-3 and 1e-4 behave; anchored at
  // the paper's two tolerances: scale(1e-3) = 1, scale(1e-4) = tol_factor.
  const double exponent = std::log(p_.tol_factor_1e4) / std::log(10.0);
  return std::pow(1e-3 / tol, exponent);
}

double AthlonCostModel::subsolve_seconds(const grid::Grid2D& g, double tol, double mhz) const {
  MG_REQUIRE(mhz > 0.0);
  const double speed = mhz / p_.reference_mhz;
  const double work = p_.cost_per_cell * cells_of(g) * aspect_weight(g, p_.aspect_kappa);
  return (p_.per_grid_overhead + work * tol_scale(tol)) / speed;
}

double AthlonCostModel::prolongation_seconds(int root, int level, double mhz) const {
  // The combination is performed hierarchically: the cost is proportional to
  // the total number of *component* cells, not (components x finest cells).
  const double speed = mhz / p_.reference_mhz;
  double component_cells = 0.0;
  for (const auto& term : grid::combination_terms(root, level)) {
    component_cells += cells_of(term.grid);
  }
  return p_.prolong_per_cell * component_cells / speed;
}

double AthlonCostModel::init_seconds(double mhz) const {
  return p_.init / (mhz / p_.reference_mhz);
}

MeasuredCostModel::MeasuredCostModel(const std::vector<Sample>& samples, double measured_mhz)
    : measured_mhz_(measured_mhz) {
  MG_REQUIRE(!samples.empty());
  MG_REQUIRE(measured_mhz > 0.0);

  // Base tolerance = the one with the most samples.
  std::map<double, std::size_t> by_tol;
  for (const auto& s : samples) ++by_tol[s.tol];
  base_tol_ = std::max_element(by_tol.begin(), by_tol.end(), [](const auto& a, const auto& b) {
                return a.second < b.second;
              })->first;

  // Least squares for sec = A*x + B*y with x = cells, y = cells * 2^min.
  double sxx = 0, sxy = 0, syy = 0, sxs = 0, sys = 0;
  for (const auto& s : samples) {
    if (s.tol != base_tol_) continue;
    const grid::Grid2D g(s.root, s.lx, s.ly);
    const double x = cells_of(g);
    const double y = x * std::pow(2.0, std::min(s.lx, s.ly));
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
    sxs += x * s.seconds;
    sys += y * s.seconds;
  }
  const double det = sxx * syy - sxy * sxy;
  double a, b;
  if (std::abs(det) > 1e-30 && syy > 0.0) {
    a = (sxs * syy - sys * sxy) / det;
    b = (sxx * sys - sxy * sxs) / det;
  } else {
    a = sxx > 0.0 ? sxs / sxx : 1e-7;
    b = 0.0;
  }
  c_ = std::max(a, 1e-12);
  kappa_ = c_ > 0.0 ? std::max(b / c_, 0.0) : 0.0;

  // Tolerance factor from the other-tolerance samples.
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  for (const auto& s : samples) {
    if (s.tol == base_tol_) continue;
    const grid::Grid2D g(s.root, s.lx, s.ly);
    const double predicted = c_ * cells_of(g) * aspect_weight(g, kappa_);
    if (predicted > 0.0) {
      ratio_sum += s.seconds / predicted;
      ++ratio_count;
    }
  }
  tol_factor_ = ratio_count > 0 ? ratio_sum / static_cast<double>(ratio_count) : 2.0;
}

double MeasuredCostModel::subsolve_seconds(const grid::Grid2D& g, double tol, double mhz) const {
  const double speed = mhz / measured_mhz_;
  const double base = c_ * cells_of(g) * aspect_weight(g, kappa_);
  const double factor = tol == base_tol_ ? 1.0 : tol_factor_;
  return base * factor / speed;
}

double MeasuredCostModel::prolongation_seconds(int root, int level, double mhz) const {
  const double speed = mhz / measured_mhz_;
  double component_cells = 0.0;
  for (const auto& term : grid::combination_terms(root, level)) {
    component_cells += cells_of(term.grid);
  }
  return 2e-7 * component_cells / speed;
}

double MeasuredCostModel::init_seconds(double mhz) const { return 0.02 / (mhz / measured_mhz_); }

}  // namespace mg::cluster

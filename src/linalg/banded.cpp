#include "linalg/banded.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/check.hpp"

namespace mg::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t half_bandwidth)
    : n_(n), hb_(half_bandwidth), data_(n * (2 * half_bandwidth + 1), 0.0), inv_diag_(n, 0.0) {
  MG_REQUIRE(n > 0);
}

namespace {
std::size_t renumber(const std::vector<std::size_t>& order, std::size_t i) {
  return order.empty() ? i : order[i];
}
}  // namespace

BandedMatrix BandedMatrix::from_csr(const CsrMatrix& a, std::size_t half_bandwidth,
                                    const std::vector<std::size_t>& order) {
  MG_REQUIRE(a.rows() == a.cols());
  MG_REQUIRE(order.empty() || order.size() == a.rows());
  BandedMatrix band(a.rows(), half_bandwidth);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t bi = renumber(order, i);
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t bj = renumber(order, a.col_idx()[k]);
      MG_REQUIRE_MSG(band.in_band(bi, bj), "CSR entry outside declared bandwidth");
      band.set(bi, bj, a.values()[k]);
    }
  }
  return band;
}

void BandedMatrix::assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a,
                                      const std::vector<std::size_t>& order) {
  MG_REQUIRE(a.rows() == n_ && a.cols() == n_);
  MG_REQUIRE(order.empty() || order.size() == n_);
  std::fill(data_.begin(), data_.end(), 0.0);
  factorized_ = false;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t bi = renumber(order, i);
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t bj = renumber(order, a.col_idx()[k]);
      MG_REQUIRE_MSG(in_band(bi, bj), "CSR entry outside declared bandwidth");
      data_[idx(bi, bj)] = scale_a * a.values()[k];
    }
    data_[idx(bi, bi)] += scale_diag;
  }
}

std::size_t BandedMatrix::idx(std::size_t i, std::size_t j) const {
  return i * (2 * hb_ + 1) + (j + hb_ - i);
}

bool BandedMatrix::in_band(std::size_t i, std::size_t j) const {
  return (j + hb_ >= i) && (j <= i + hb_) && i < n_ && j < n_;
}

double BandedMatrix::at(std::size_t i, std::size_t j) const {
  MG_REQUIRE(i < n_ && j < n_);
  if (!in_band(i, j)) return 0.0;
  return data_[idx(i, j)];
}

void BandedMatrix::set(std::size_t i, std::size_t j, double value) {
  MG_REQUIRE(in_band(i, j));
  data_[idx(i, j)] = value;
}

void BandedMatrix::add(std::size_t i, std::size_t j, double value) {
  MG_REQUIRE(in_band(i, j));
  data_[idx(i, j)] += value;
}

void BandedMatrix::multiply(const Vec& x, Vec& y) const {
  MG_REQUIRE(x.size() == n_);
  MG_REQUIRE_MSG(!factorized_, "multiply() after factorize() would use LU factors");
  y.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j_lo = i >= hb_ ? i - hb_ : 0;
    const std::size_t j_hi = std::min(n_ - 1, i + hb_);
    double s = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j) s += data_[idx(i, j)] * x[j];
    y[i] = s;
  }
}

void BandedMatrix::factorize() {
  MG_REQUIRE(!factorized_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double pivot = data_[idx(k, k)];
    if (std::abs(pivot) < 1e-300) {
      throw std::runtime_error("BandedMatrix::factorize: zero pivot at row " + std::to_string(k));
    }
    inv_diag_[k] = 1.0 / pivot;
    const std::size_t i_hi = std::min(n_ - 1, k + hb_);
    for (std::size_t i = k + 1; i <= i_hi; ++i) {
      const double l = data_[idx(i, k)] / pivot;
      data_[idx(i, k)] = l;
      const std::size_t j_hi = std::min(n_ - 1, k + hb_);
      for (std::size_t j = k + 1; j <= j_hi; ++j) {
        data_[idx(i, j)] -= l * data_[idx(k, j)];
      }
    }
  }
  factorized_ = true;
}

void BandedMatrix::solve(const Vec& b, Vec& x) const {
  MG_REQUIRE(b.size() == n_);
  x = b;
  solve_in_place(x);
}

void BandedMatrix::solve_in_place(Vec& x) const {
  MG_REQUIRE(factorized_);
  MG_REQUIRE(x.size() == n_);
  // Forward substitution with unit lower factor.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j_lo = i >= hb_ ? i - hb_ : 0;
    double s = x[i];
    for (std::size_t j = j_lo; j < i; ++j) s -= data_[idx(i, j)] * x[j];
    x[i] = s;
  }
  // Back substitution with upper factor, farthest column first: x[ii + 1],
  // produced by the previous row, enters last, so rows overlap instead of
  // forming one dependency chain.
  for (std::size_t ii = n_; ii-- > 0;) {
    const std::size_t j_hi = std::min(n_ - 1, ii + hb_);
    double s = x[ii];
    for (std::size_t j = j_hi; j > ii; --j) s -= data_[idx(ii, j)] * x[j];
    x[ii] = s * inv_diag_[ii];
  }
}

namespace {
/// Band position of each x-fastest unknown when the band runs along the
/// short axis; empty (identity) unless the grid is wider than tall.
std::vector<std::size_t> short_axis_order(std::size_t nx, std::size_t ny) {
  std::vector<std::size_t> order;
  if (nx <= ny) return order;
  order.resize(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) order[j * nx + i] = i * ny + j;
  }
  return order;
}
}  // namespace

GridBandedLU::GridBandedLU(std::size_t nx, std::size_t ny)
    : GridBandedLU(short_axis_order(nx, ny), BandedMatrix(nx * ny, std::min(nx, ny))) {}

GridBandedLU::GridBandedLU(std::vector<std::size_t> order, BandedMatrix band)
    : order_(std::move(order)), band_(std::move(band)) {}

GridBandedLU GridBandedLU::from_csr(const CsrMatrix& a, std::size_t nx, std::size_t ny) {
  MG_REQUIRE(a.rows() == nx * ny);
  std::vector<std::size_t> order = short_axis_order(nx, ny);
  BandedMatrix band = BandedMatrix::from_csr(a, std::min(nx, ny), order);
  return GridBandedLU(std::move(order), std::move(band));
}

void GridBandedLU::assign_shifted_csr(const CsrMatrix& a, double scale_diag, double scale_a) {
  band_.assign_shifted_csr(a, scale_diag, scale_a, order_);
}

void GridBandedLU::factorize() { band_.factorize(); }

void GridBandedLU::solve(const Vec& b, Vec& x) {
  if (order_.empty()) {
    band_.solve(b, x);
    return;
  }
  const std::size_t n = band_.size();
  MG_REQUIRE(b.size() == n);
  work_.resize(n);
  for (std::size_t r = 0; r < n; ++r) work_[order_[r]] = b[r];
  band_.solve_in_place(work_);
  x.resize(n);
  for (std::size_t r = 0; r < n; ++r) x[r] = work_[order_[r]];
}

}  // namespace mg::linalg

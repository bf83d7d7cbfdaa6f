#include "linalg/csr.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mg::linalg {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx, std::vector<double> values)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)), col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  MG_REQUIRE(row_ptr_.size() == rows_ + 1);
  MG_REQUIRE(col_idx_.size() == values_.size());
  MG_REQUIRE(row_ptr_.front() == 0 && row_ptr_.back() == values_.size());
  for (std::size_t i = 0; i < rows_; ++i) {
    MG_REQUIRE(row_ptr_[i] <= row_ptr_[i + 1]);
    for (std::size_t k = row_ptr_[i]; k + 1 < row_ptr_[i + 1]; ++k) {
      MG_REQUIRE_MSG(col_idx_[k] < col_idx_[k + 1], "columns must be sorted and unique");
    }
    if (row_ptr_[i] < row_ptr_[i + 1]) MG_REQUIRE(col_idx_[row_ptr_[i + 1] - 1] < cols_);
  }
}

void CsrMatrix::multiply(const Vec& x, Vec& y) const {
  MG_REQUIRE(x.size() == cols_);
  y.resize(rows_);
  const std::size_t* __restrict rp = row_ptr_.data();
  const std::size_t* __restrict ci = col_idx_.data();
  const double* __restrict va = values_.data();
  const double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) s += va[k] * xp[ci[k]];
    yp[i] = s;
  }
}

void CsrMatrix::residual(const Vec& b, const Vec& x, Vec& y) const {
  multiply_sub(*this, b, x, y);
}

Vec CsrMatrix::diagonal() const {
  Vec d(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) {
        if (j == i) d[i] = values_[k];
        break;  // columns are sorted: nothing at or before the diagonal left
      }
    }
  }
  return d;
}

std::vector<std::size_t> CsrMatrix::diagonal_offsets() const {
  std::vector<std::size_t> offsets(rows_, kNoDiagonal);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) {
        if (j == i) offsets[i] = k;
        break;
      }
    }
  }
  return offsets;
}

double CsrMatrix::at(std::size_t i, std::size_t j) const {
  MG_REQUIRE(i < rows_ && j < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  return 0.0;
}

bool CsrMatrix::same_pattern(const CsrMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && row_ptr_ == other.row_ptr_ &&
         col_idx_ == other.col_idx_;
}

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_entries_(rows) {}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
  MG_REQUIRE(row < rows_ && col < cols_);
  row_entries_[row].push_back({col, value});
}

CsrMatrix CsrBuilder::build() const {
  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  std::vector<Entry> row;
  for (std::size_t i = 0; i < rows_; ++i) {
    row = row_entries_[i];
    std::sort(row.begin(), row.end(), [](const Entry& a, const Entry& b) { return a.col < b.col; });
    std::size_t count = 0;
    for (std::size_t k = 0; k < row.size();) {
      std::size_t j = k + 1;
      double s = row[k].value;
      while (j < row.size() && row[j].col == row[k].col) s += row[j++].value;
      col_idx.push_back(row[k].col);
      values.push_back(s);
      ++count;
      k = j;
    }
    row_ptr[i + 1] = row_ptr[i] + count;
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

void CsrBuilder::clear() {
  for (auto& r : row_entries_) r.clear();
}

CsrMatrix shifted_identity(const CsrMatrix& a, double scale_diag, double scale_a) {
  MG_REQUIRE(a.rows() == a.cols());
  const std::size_t n = a.rows();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(a.nnz() + n);
  values.reserve(a.nnz() + n);
  for (std::size_t i = 0; i < n; ++i) {
    bool diag_seen = false;
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      if (j == i) {
        col_idx.push_back(j);
        values.push_back(scale_diag + scale_a * a.values()[k]);
        diag_seen = true;
      } else if (j > i && !diag_seen) {
        // Insert the missing diagonal before the first super-diagonal entry.
        col_idx.push_back(i);
        values.push_back(scale_diag);
        diag_seen = true;
        col_idx.push_back(j);
        values.push_back(scale_a * a.values()[k]);
      } else {
        col_idx.push_back(j);
        values.push_back(scale_a * a.values()[k]);
      }
    }
    if (!diag_seen) {
      col_idx.push_back(i);
      values.push_back(scale_diag);
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

void multiply_sub(const CsrMatrix& a, const Vec& b, const Vec& x, Vec& y) {
  MG_REQUIRE(b.size() == a.rows() && x.size() == a.cols());
  y.resize(a.rows());
  const std::size_t rows = a.rows();
  const std::size_t* __restrict rp = a.row_ptr().data();
  const std::size_t* __restrict ci = a.col_idx().data();
  const double* __restrict va = a.values().data();
  const double* __restrict bp = b.data();
  const double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  for (std::size_t i = 0; i < rows; ++i) {
    double s = bp[i];
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) s -= va[k] * xp[ci[k]];
    yp[i] = s;
  }
}

}  // namespace mg::linalg

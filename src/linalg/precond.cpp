#include "linalg/precond.hpp"

#include <cmath>
#include <stdexcept>

#include "support/check.hpp"

namespace mg::linalg {

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) : lu_(a), diag_(a.rows()) {
  MG_REQUIRE(a.rows() == a.cols());
  const std::size_t n = lu_.rows();
  const auto& row_ptr = lu_.row_ptr();
  const auto& col_idx = lu_.col_idx();
  auto& values = lu_.values();

  // Locate diagonal entries (must exist structurally).
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (col_idx[k] == i) {
        diag_[i] = k;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("Ilu0Preconditioner: missing structural diagonal");
  }

  // IKJ variant of ILU(0): for each row i, eliminate with all previous rows k
  // that appear in row i's pattern.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t kk = row_ptr[i]; kk < row_ptr[i + 1] && col_idx[kk] < i; ++kk) {
      const std::size_t k = col_idx[kk];
      const double pivot = values[diag_[k]];
      if (std::abs(pivot) < 1e-300) throw std::runtime_error("Ilu0Preconditioner: zero pivot");
      const double factor = values[kk] / pivot;
      values[kk] = factor;
      // Subtract factor * (row k, columns > k) restricted to row i's pattern.
      std::size_t pi = kk + 1;
      for (std::size_t pk = diag_[k] + 1; pk < row_ptr[k + 1]; ++pk) {
        const std::size_t col = col_idx[pk];
        while (pi < row_ptr[i + 1] && col_idx[pi] < col) ++pi;
        if (pi < row_ptr[i + 1] && col_idx[pi] == col) values[pi] -= factor * values[pk];
      }
    }
  }
}

void Ilu0Preconditioner::apply(const Vec& r, Vec& z) const {
  const std::size_t n = lu_.rows();
  MG_REQUIRE(r.size() == n);
  const auto& row_ptr = lu_.row_ptr();
  const auto& col_idx = lu_.col_idx();
  const auto& values = lu_.values();
  z.resize(n);
  // Solve L y = r (unit lower triangular).
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    for (std::size_t k = row_ptr[i]; k < diag_[i]; ++k) s -= values[k] * z[col_idx[k]];
    z[i] = s;
  }
  // Solve U z = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = diag_[ii] + 1; k < row_ptr[ii + 1]; ++k) s -= values[k] * z[col_idx[k]];
    z[ii] = s / values[diag_[ii]];
  }
}

std::unique_ptr<Preconditioner> make_preconditioner(PrecondKind kind, const CsrMatrix& a) {
  switch (kind) {
    case PrecondKind::Identity: return std::make_unique<IdentityPreconditioner>();
    case PrecondKind::Ilu0: return std::make_unique<Ilu0Preconditioner>(a);
  }
  throw std::logic_error("make_preconditioner: unknown kind");
}

}  // namespace mg::linalg

// Compressed-sparse-row matrix and builder.
//
// The transport discretisation assembles the Jacobian of the semi-discrete
// advection–diffusion operator as a CSR matrix every accepted Rosenbrock step
// (the paper: "this A matrix must be built up in the program which takes a
// lot of time").  Column indices within each row are kept sorted so ILU(0)
// and structural comparisons are cheap.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace mg::linalg {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assembles from raw CSR arrays.  row_ptr.size() == rows+1; column indices
  /// must be sorted and unique within each row and < cols.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// y = A * x.  `y` is resized and every entry overwritten (no zero-fill
  /// pass); it must not alias `x`.
  void multiply(const Vec& x, Vec& y) const;

  /// y = b - A * x.
  void residual(const Vec& b, const Vec& x, Vec& y) const;

  /// Returns the main diagonal; zero where a row has no diagonal entry.
  /// Single ordered pass over the stored entries — no per-row probing.
  Vec diagonal() const;

  /// Sentinel for rows without a structural diagonal in diagonal_offsets().
  static constexpr std::size_t kNoDiagonal = static_cast<std::size_t>(-1);

  /// Value-array index of each row's diagonal entry (kNoDiagonal where the
  /// row has none).  Precompute once to update diagonals in place each step.
  std::vector<std::size_t> diagonal_offsets() const;

  /// Value at (i, j); zero if not stored.  Binary search within the row.
  double at(std::size_t i, std::size_t j) const;

  /// True if the two matrices have identical sparsity patterns.
  bool same_pattern(const CsrMatrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Row-wise incremental builder.  add() accumulates duplicate coordinates;
/// build() sorts, merges and validates.
class CsrBuilder {
 public:
  CsrBuilder(std::size_t rows, std::size_t cols);

  /// Accumulates `value` at (row, col).
  void add(std::size_t row, std::size_t col, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Produces the matrix.  The builder may be reused afterwards (entries kept).
  CsrMatrix build() const;

  void clear();

 private:
  struct Entry {
    std::size_t col;
    double value;
  };
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<Entry>> row_entries_;
};

/// Returns I*scale_diag + A*scale_a with the pattern of A plus the diagonal.
/// Used to form the Rosenbrock stage matrix (I - gamma*h*J) from J.
CsrMatrix shifted_identity(const CsrMatrix& a, double scale_diag, double scale_a);

/// y = b - A * x, folded into one SpMV sweep.  `y` is resized; it must not
/// alias `b` or `x`.  CsrMatrix::residual delegates here; BiCGSTAB calls it
/// directly for its true-residual checks.
void multiply_sub(const CsrMatrix& a, const Vec& b, const Vec& x, Vec& y);

}  // namespace mg::linalg

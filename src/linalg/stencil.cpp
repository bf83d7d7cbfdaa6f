#include "linalg/stencil.hpp"

#include <utility>
#include <vector>

#include "support/check.hpp"

namespace mg::linalg {

CsrMatrix FivePointStencil::matrix() const {
  const std::size_t n = nx * ny;
  // Five per row, less one for each block edge the row touches.
  const std::size_t nnz = n == 0 ? 0 : 5 * n - 2 * (nx + ny);
  std::vector<std::size_t> row_ptr(n + 1);
  std::vector<std::size_t> col_idx(nnz);
  std::vector<double> values(nnz);
  std::size_t k = 0;
  auto put = [&](std::size_t col, double w) {
    col_idx[k] = col;
    values[k] = w;
    ++k;
  };
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t r = j * nx + i;
      if (j > 0) put(r - nx, south);
      if (i > 0) put(r - 1, west);
      put(r, centre);
      if (i + 1 < nx) put(r + 1, east);
      if (j + 1 < ny) put(r + nx, north);
      row_ptr[r + 1] = k;
    }
  }
  MG_ASSERT(k == nnz);
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

namespace {

/// One block row: `here` is its x, `below`/`above` the rows south and north
/// (read only when kSouth/kNorth).  The inner columns have all of W, C, E,
/// so their loop has no branch; the first and last column drop W and E.
template <bool kSouth, bool kNorth>
void multiply_row(const FivePointStencil& s, const double* __restrict below,
                  const double* __restrict here, const double* __restrict above,
                  double* __restrict out) {
  const std::size_t nx = s.nx;
  const double ws = s.south, ww = s.west, wc = s.centre, we = s.east, wn = s.north;
  auto node = [&](std::size_t i, bool west, bool east) {
    double v = 0.0;
    if constexpr (kSouth) v += ws * below[i];
    if (west) v += ww * here[i - 1];
    v += wc * here[i];
    if (east) v += we * here[i + 1];
    if constexpr (kNorth) v += wn * above[i];
    return v;
  };
  if (nx == 1) {
    out[0] = node(0, false, false);
    return;
  }
  out[0] = node(0, false, true);
  for (std::size_t i = 1; i + 1 < nx; ++i) out[i] = node(i, true, true);
  out[nx - 1] = node(nx - 1, true, false);
}

}  // namespace

void FivePointStencil::multiply(const Vec& x, Vec& y) const {
  MG_REQUIRE(x.size() == nx * ny);
  MG_REQUIRE(&x != &y);
  y.resize(nx * ny);
  if (y.empty()) return;
  const double* xp = x.data();
  double* yp = y.data();
  if (ny == 1) {
    multiply_row<false, false>(*this, nullptr, xp, nullptr, yp);
    return;
  }
  multiply_row<false, true>(*this, nullptr, xp, xp + nx, yp);
  for (std::size_t j = 1; j + 1 < ny; ++j) {
    const double* here = xp + j * nx;
    multiply_row<true, true>(*this, here - nx, here, here + nx, yp + j * nx);
  }
  const double* last = xp + (ny - 1) * nx;
  multiply_row<true, false>(*this, last - nx, last, nullptr, yp + (ny - 1) * nx);
}

}  // namespace mg::linalg

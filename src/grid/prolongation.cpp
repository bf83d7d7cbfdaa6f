#include "grid/prolongation.hpp"

#include <utility>
#include <vector>

#include "support/check.hpp"

namespace mg::grid {

namespace {

/// The per-node expression over one fine row: tx holds each fine column's
/// horizontal weight, ll/lr/ul/ur the lower-left, lower-right, upper-left
/// and upper-right corners of its coarse cell, ty is the row's vertical
/// weight.  store(out[i], value) writes or accumulates.
template <class Store>
void interpolate_row(std::size_t n, double ty, const double* __restrict tx,
                     const double* __restrict ll, const double* __restrict lr,
                     const double* __restrict ul, const double* __restrict ur,
                     double* __restrict out, Store store) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = tx[i];
    store(out[i], (1.0 - t) * (1.0 - ty) * ll[i] + t * (1.0 - ty) * lr[i] +
                      (1.0 - t) * ty * ul[i] + t * ty * ur[i]);
  }
}

/// Interpolates `coarse` at every node of `fine_grid` into `out`, the fine
/// grid's node array, through store(out[node], value).  Fine columns
/// [m*rx, (m+1)*rx) lie in coarse cell column m and fine rows
/// [jc*ry, (jc+1)*ry) in coarse cell row jc; the last cell column and row
/// also take the last fine column and row, at weight 1.  A fine column's
/// weight depends only on the column, so it is computed once per call, and
/// its four coarse corners only on the column and the coarse cell row, so
/// they are gathered once per cell row and shared by its ry fine rows, which
/// then evaluate over contiguous arrays.  Every node's value is the same
/// expression, in the same term order, wherever it is stored.
template <class Store>
void interpolate(const Field& coarse, const Grid2D& fine_grid, double* out, Store store) {
  const Grid2D& cg = coarse.grid();
  MG_REQUIRE(cg.root() == fine_grid.root());
  MG_REQUIRE(fine_grid.lx() >= cg.lx() && fine_grid.ly() >= cg.ly());

  const std::size_t rx = std::size_t{1} << (fine_grid.lx() - cg.lx());
  const std::size_t ry = std::size_t{1} << (fine_grid.ly() - cg.ly());
  const std::size_t fnx = fine_grid.nodes_x();
  const std::size_t fny = fine_grid.nodes_y();
  const std::size_t cnx = cg.nodes_x();
  const std::size_t cny = cg.nodes_y();
  auto end_of_cell = [](std::size_t cell, std::size_t ratio, std::size_t coarse_nodes,
                        std::size_t fine_nodes) {
    return cell + 2 == coarse_nodes ? fine_nodes : (cell + 1) * ratio;
  };

  std::vector<double> tx(fnx);
  for (std::size_t m = 0; m + 1 < cnx; ++m) {
    const std::size_t end = end_of_cell(m, rx, cnx, fnx);
    for (std::size_t i = m * rx; i < end; ++i) {
      tx[i] = (static_cast<double>(i) - static_cast<double>(m * rx)) / static_cast<double>(rx);
    }
  }

  // The corners of fine column i's coarse cell on the cell's lower and upper
  // coarse row: left and right.  Coarse row jc + 1 is the upper row of cell
  // row jc and the lower row of cell row jc + 1, so each coarse row is
  // gathered once and the two row buffers swap.
  std::vector<double> corners(4 * fnx);
  double* lower_left = corners.data();
  double* lower_right = lower_left + fnx;
  double* upper_left = lower_right + fnx;
  double* upper_right = upper_left + fnx;
  auto gather = [&](const double* row, double* left, double* right) {
    for (std::size_t m = 0; m + 1 < cnx; ++m) {
      const double l = row[m], r = row[m + 1];
      const std::size_t end = end_of_cell(m, rx, cnx, fnx);
      for (std::size_t i = m * rx; i < end; ++i) {
        left[i] = l;
        right[i] = r;
      }
    }
  };
  const double* c = coarse.data().data();
  gather(c, lower_left, lower_right);
  for (std::size_t jc = 0; jc + 1 < cny; ++jc) {
    gather(c + (jc + 1) * cnx, upper_left, upper_right);
    const std::size_t end = end_of_cell(jc, ry, cny, fny);
    for (std::size_t j = jc * ry; j < end; ++j) {
      const double ty =
          (static_cast<double>(j) - static_cast<double>(jc * ry)) / static_cast<double>(ry);
      interpolate_row(fnx, ty, tx.data(), lower_left, lower_right, upper_left, upper_right,
                      out + j * fnx, store);
    }
    std::swap(lower_left, upper_left);
    std::swap(lower_right, upper_right);
  }
}

}  // namespace

Field prolongate(const Field& coarse, const Grid2D& fine_grid) {
  Field fine(fine_grid);
  interpolate(coarse, fine_grid, fine.data().data(), [](double& out, double v) { out = v; });
  return fine;
}

void prolongate_add(double alpha, const Field& coarse, Field& fine) {
  MG_REQUIRE(&coarse != &fine);
  interpolate(coarse, fine.grid(), fine.data().data(),
              [alpha](double& out, double v) { out += alpha * v; });
}

}  // namespace mg::grid

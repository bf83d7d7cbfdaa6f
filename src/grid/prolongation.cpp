#include "grid/prolongation.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace mg::grid {

namespace {

/// Interpolates `coarse` at every node of `fine_grid` and hands each value
/// to store(fine node index, value).  The bilinear weights of a fine column
/// depend only on the column, so they are computed once per call; every
/// node's value is the same expression, in the same term order, wherever
/// it is stored.
template <class Store>
void interpolate(const Field& coarse, const Grid2D& fine_grid, Store store) {
  const Grid2D& cg = coarse.grid();
  MG_REQUIRE(cg.root() == fine_grid.root());
  MG_REQUIRE(fine_grid.lx() >= cg.lx() && fine_grid.ly() >= cg.ly());

  const std::size_t rx = std::size_t{1} << (fine_grid.lx() - cg.lx());
  const std::size_t ry = std::size_t{1} << (fine_grid.ly() - cg.ly());
  const std::size_t fnx = fine_grid.nodes_x();
  const std::size_t cnx = cg.nodes_x();

  // Coarse cell containing fine column i and the horizontal weight.
  std::vector<std::size_t> ic(fnx);
  std::vector<double> tx(fnx);
  for (std::size_t i = 0; i < fnx; ++i) {
    ic[i] = std::min(i / rx, cnx - 2);
    tx[i] = (static_cast<double>(i) - static_cast<double>(ic[i] * rx)) / static_cast<double>(rx);
  }

  const double* c = coarse.data().data();
  for (std::size_t j = 0; j < fine_grid.nodes_y(); ++j) {
    // Coarse cell containing fine row j and the vertical interpolation weight.
    const std::size_t jc = std::min(j / ry, cg.nodes_y() - 2);
    const double ty = (static_cast<double>(j) - static_cast<double>(jc * ry)) / static_cast<double>(ry);
    const double* row0 = c + jc * cnx;
    const double* row1 = row0 + cnx;
    for (std::size_t i = 0; i < fnx; ++i) {
      const std::size_t m = ic[i];
      const double t = tx[i];
      store(j * fnx + i, (1.0 - t) * (1.0 - ty) * row0[m] + t * (1.0 - ty) * row0[m + 1] +
                             (1.0 - t) * ty * row1[m] + t * ty * row1[m + 1]);
    }
  }
}

}  // namespace

Field prolongate(const Field& coarse, const Grid2D& fine_grid) {
  Field fine(fine_grid);
  double* out = fine.data().data();
  interpolate(coarse, fine_grid, [out](std::size_t n, double v) { out[n] = v; });
  return fine;
}

void prolongate_add(double alpha, const Field& coarse, Field& fine) {
  MG_REQUIRE(&coarse != &fine);
  double* out = fine.data().data();
  interpolate(coarse, fine.grid(), [out, alpha](std::size_t n, double v) { out[n] += alpha * v; });
}

}  // namespace mg::grid

// Bilinear prolongation between nested anisotropic grids.
//
// The combination technique's "Prolongation work" (paper §3, line 29):
// every component solution is interpolated onto the finest grid before the
// weighted combination.  Coarse vertices are a subset of fine vertices, so
// the interpolation is exact for bilinear functions (tested as a property).
#pragma once

#include "grid/field.hpp"

namespace mg::grid {

/// Interpolates `coarse` onto `fine_grid`.  Requires the same root and
/// fine_grid.lx >= coarse.lx, fine_grid.ly >= coarse.ly.
Field prolongate(const Field& coarse, const Grid2D& fine_grid);

/// fine += alpha * prolongate(coarse, fine.grid()), in one pass and without
/// the temporary fine field; bitwise equal to the two-step form.
void prolongate_add(double alpha, const Field& coarse, Field& fine);

}  // namespace mg::grid

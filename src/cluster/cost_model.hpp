// Cost models for the simulated runs.
//
// The paper ran on hardware we do not have (a 32-node Athlon cluster), so
// Table 1 is regenerated in virtual time: per-grid subsolve cost comes from
// a cost model, either
//
//  * AthlonCostModel — an analytic model calibrated against the paper's own
//    sequential-time column (st(15, 1e-3) ~ 2019 s on a 1200 MHz Athlon,
//    growth ~x2.3 per level, 1e-4 runs ~2x the 1e-3 runs), or
//  * MeasuredCostModel — fitted to real subsolve wall times measured with
//    this library's own kernel on the present machine and rescaled to
//    Athlon speed.
//
// The per-grid shape matters: within one grid family all grids have the
// same cell count but different aspect ratios, and the near-square grids
// cost more (larger stencil bandwidth in the per-step solve).  This mild
// imbalance is what keeps the paper's weighted machine count (m ~ 12 at
// level 15) far below the worker count (31) — cheap thin-grid workers die
// early — and caps the speedup near m/2.
#pragma once

#include <cstddef>
#include <vector>

#include "grid/grid2d.hpp"

namespace mg::cluster {

class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Wall seconds for subsolve on grid g at tolerance tol on a machine of
  /// clock `mhz`.
  virtual double subsolve_seconds(const grid::Grid2D& g, double tol, double mhz) const = 0;

  /// Wall seconds for the final prolongation/combination at `level`.
  virtual double prolongation_seconds(int root, int level, double mhz) const = 0;

  /// Fixed per-run initialisation cost (the sequential prelude).
  virtual double init_seconds(double mhz) const = 0;

  /// Sequential-program model time: init + all subsolves + prolongation.
  double sequential_seconds(int root, int level, double tol, double mhz) const;
};

/// Analytic model calibrated to the paper's Table 1 sequential column.
class AthlonCostModel final : public CostModel {
 public:
  struct Params {
    double cost_per_cell = 8.6e-5;  ///< s/cell at 1200 MHz, tol 1e-3
    double aspect_kappa = 0.03;     ///< extra weight ~ kappa * 2^min(lx,ly)
    double tol_factor_1e4 = 2.04;   ///< st(1e-4)/st(1e-3) at high level
    double init = 0.02;             ///< fixed prelude seconds
    double per_grid_overhead = 2e-3;
    double prolong_per_cell = 2e-7; ///< per *component* cell prolongated
    double reference_mhz = 1200.0;
  };

  AthlonCostModel() : AthlonCostModel(Params{}) {}
  explicit AthlonCostModel(Params params) : p_(params) {}

  double subsolve_seconds(const grid::Grid2D& g, double tol, double mhz) const override;
  double prolongation_seconds(int root, int level, double mhz) const override;
  double init_seconds(double mhz) const override;

  const Params& params() const { return p_; }

 private:
  double tol_scale(double tol) const;
  Params p_;
};

/// Model fitted to real measurements of this library's subsolve kernel.
/// Fit form: seconds = c * cells * (1 + kappa * 2^min(lx,ly)) * s(tol),
/// least-squares over the provided samples (one per grid).
class MeasuredCostModel final : public CostModel {
 public:
  struct Sample {
    int root;
    int lx;
    int ly;
    double tol;
    double seconds;
  };

  /// Fits from samples gathered on a machine of `measured_mhz` equivalent
  /// speed.  Requires samples at two tolerances to fit the tol factor
  /// (falls back to 2.0 if only one is present).
  MeasuredCostModel(const std::vector<Sample>& samples, double measured_mhz);

  double subsolve_seconds(const grid::Grid2D& g, double tol, double mhz) const override;
  double prolongation_seconds(int root, int level, double mhz) const override;
  double init_seconds(double mhz) const override;

  double cost_per_cell() const { return c_; }
  double aspect_kappa() const { return kappa_; }
  double tol_factor() const { return tol_factor_; }

 private:
  double c_ = 1e-7;
  double kappa_ = 0.0;
  double tol_factor_ = 2.0;
  double base_tol_ = 1e-3;
  double measured_mhz_;
};

}  // namespace mg::cluster

// Preconditioners for the Krylov solver.
//
// Identity (no preconditioning) and ILU(0) on the CSR pattern.  ILU(0) is
// the transport stage solver's preconditioner: the stage matrix is an
// M-matrix-like 5-point operator where ILU(0) is both cheap and effective.
#pragma once

#include <memory>

#include "linalg/csr.hpp"
#include "linalg/vector_ops.hpp"

namespace mg::linalg {

/// Applies z = M^{-1} r for some approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const Vec& r, Vec& z) const = 0;
  virtual const char* name() const = 0;
};

class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vec& r, Vec& z) const override { z = r; }
  const char* name() const override { return "identity"; }
};

/// Incomplete LU with zero fill-in on the pattern of A.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  void apply(const Vec& r, Vec& z) const override;
  const char* name() const override { return "ilu0"; }

 private:
  CsrMatrix lu_;                   // combined L (unit diag, not stored) and U factors
  std::vector<std::size_t> diag_;  // index of the diagonal entry in each row
};

/// Factory helper used by solver configuration.
enum class PrecondKind { Identity, Ilu0 };

std::unique_ptr<Preconditioner> make_preconditioner(PrecondKind kind, const CsrMatrix& a);

}  // namespace mg::linalg

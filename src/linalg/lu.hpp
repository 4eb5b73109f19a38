// LU factorization with partial pivoting — the workhorse behind the `dgesv`
// problem every NetSolve server registers, and the kernel timed by the
// LINPACK-style server rating.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace ns::linalg {

class LuFactorization {
 public:
  /// Factor A = P L U in place (A must be square), blocked right-looking
  /// on the packed GEMM kernel. Fails with kExecutionFailed on exact
  /// singularity or on a pivot that is not finite (a NaN or Inf in A).
  static Result<LuFactorization> factor(Matrix a);

  /// Solve A x = b for one right-hand side.
  Result<Vector> solve(const Vector& b) const;

  /// Solve A X = B column by column.
  Result<Matrix> solve(const Matrix& b) const;

  /// det(A) from the diagonal of U and the pivot parity.
  double determinant() const noexcept;

  std::size_t order() const noexcept { return lu_.rows(); }
  const Matrix& packed() const noexcept { return lu_; }
  const std::vector<int>& pivots() const noexcept { return pivots_; }

 private:
  LuFactorization(Matrix lu, std::vector<int> pivots, int sign)
      : lu_(std::move(lu)), pivots_(std::move(pivots)), pivot_sign_(sign) {}

  Matrix lu_;                // L below diagonal (unit), U on/above
  std::vector<int> pivots_;  // row swapped with i at step i
  int pivot_sign_ = 1;
};

/// LAPACK-style convenience: solve A x = b in one call. Fails with
/// kExecutionFailed, never a NaN answer, when b or x has a non-finite entry.
Result<Vector> dgesv(const Matrix& a, const Vector& b);

/// Solve with multiple right-hand sides.
Result<Matrix> dgesv(const Matrix& a, const Matrix& b);

/// Flop count of an n-th order LU solve (2/3 n^3 + 2 n^2), used by the
/// rating and by the agent's complexity model.
double lu_flops(std::size_t n) noexcept;

}  // namespace ns::linalg

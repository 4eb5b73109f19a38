#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace ns::linalg {

namespace {

// Columns per block, the same width as the LU panel.
constexpr std::size_t kBlock = 64;
// Width at and below which the panel solve runs as a column loop on the
// raw-span BLAS kernels (rscal, axpy).
constexpr std::size_t kLeaf = 16;

// L(r0:n, c0:c1) = A(r0:n, c0:c1) T^-T for the lower triangle T of
// L(c0:c1, c0:c1), n = rows. Wider than kLeaf, it splits the columns in half
// and sends the cross term through the kernel.
void solve_panel(Matrix& l, std::size_t r0, std::size_t c0, std::size_t c1) {
  const std::size_t n = l.rows();
  if (c1 - c0 <= kLeaf) {
    for (std::size_t j = c0; j < c1; ++j) {
      double* col = l.col(j) + r0;
      rscal(n - r0, l(j, j), col);
      for (std::size_t k = j + 1; k < c1; ++k) axpy(n - r0, -l(k, j), col, l.col(k) + r0);
    }
    return;
  }
  const std::size_t mid = c0 + (c1 - c0) / 2;
  solve_panel(l, r0, c0, mid);
  gemm_update(n - r0, c1 - mid, mid - c0, -1.0, {&l(r0, c0), 1, n}, {&l(mid, c0), n, 1},
              &l(r0, mid), n);
  solve_panel(l, r0, mid, c1);
}

}  // namespace

Result<CholeskyFactorization> CholeskyFactorization::factor(const Matrix& a) {
  if (!a.square()) {
    return make_error(ErrorCode::kBadArguments, "Cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  // Right-looking blocked factorization in place on a copy of A: factor the
  // diagonal block with the scalar loop, solve for the panel below it, and
  // subtract the panel's outer product from the trailing lower triangle one
  // column block at a time. The column-block updates also write the strictly
  // upper part of each diagonal block; nothing reads it, and it is zeroed at
  // the end with the rest of the upper triangle.
  Matrix l = a;
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t j1 = std::min(j0 + kBlock, n);
    for (std::size_t j = j0; j < j1; ++j) {
      double diag = l(j, j);
      for (std::size_t k = j0; k < j; ++k) diag -= l(j, k) * l(j, k);
      if (diag <= 0.0 || !std::isfinite(diag)) {
        return make_error(ErrorCode::kExecutionFailed, "matrix is not positive definite");
      }
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (std::size_t i = j + 1; i < j1; ++i) {
        double sum = l(i, j);
        for (std::size_t k = j0; k < j; ++k) sum -= l(i, k) * l(j, k);
        l(i, j) = sum / ljj;
      }
    }
    if (j1 == n) break;
    solve_panel(l, j1, j0, j1);  // L21 = A21 L11^-T
    // A22 -= L21 L21^T on the lower triangle, one column block at a time.
    for (std::size_t c0 = j1; c0 < n; c0 += kBlock) {
      const std::size_t c1 = std::min(c0 + kBlock, n);
      gemm_update(n - c0, c1 - c0, j1 - j0, -1.0, {&l(c0, j0), 1, n}, {&l(c0, j0), n, 1},
                  &l(c0, c0), n);
    }
  }
  for (std::size_t j = 1; j < n; ++j) std::fill(l.col(j), l.col(j) + j, 0.0);
  return CholeskyFactorization(std::move(l));
}

Result<Vector> CholeskyFactorization::solve(const Vector& b) const {
  const std::size_t n = order();
  if (b.size() != n) {
    return make_error(ErrorCode::kBadArguments, "rhs size mismatch");
  }
  // L y = b (forward, down the columns of L).
  Vector y(b);
  for (std::size_t k = 0; k < n; ++k) {
    y[k] /= l_(k, k);
    const double yk = y[k];
    const double* col = l_.col(k);
    for (std::size_t i = k + 1; i < n; ++i) y[i] -= col[i] * yk;
  }
  // L^T x = y (backward).
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l_(k, i) * x[k];
    x[i] = sum / l_(i, i);
  }
  return x;
}

Result<Vector> dposv(const Matrix& a, const Vector& b) {
  auto chol = CholeskyFactorization::factor(a);
  if (!chol.ok()) return chol.error();
  return chol.value().solve(b);
}

double cholesky_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return nd * nd * nd / 3.0 + 2.0 * nd * nd;
}

}  // namespace ns::linalg

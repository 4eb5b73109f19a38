#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "linalg/blas.hpp"

namespace ns::linalg {

namespace {

// Columns per panel of the blocked factorization: wide enough that the
// trailing update is a real GEMM, narrow enough that the panel itself stays
// a small share of the flops.
constexpr std::size_t kPanel = 64;
// Width at and below which the panel and the triangular solve run as column
// loops on the raw-span BLAS kernels (axpy, rscal, trsm_lower_unit), which
// are vectorized but round as the plain loops do; wider ones split in half
// and send the cross term through the GEMM kernel, which then does nearly
// all the flops.
constexpr std::size_t kLeaf = 16;

bool all_finite(const Vector& v) noexcept {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// A(r0:r1, c0:c1) = L^-1 A(r0:r1, c0:c1) for the unit lower triangle L of
// A(r0:r1, r0:r1).
void solve_unit_lower(Matrix& a, std::size_t r0, std::size_t r1, std::size_t c0,
                      std::size_t c1) {
  const std::size_t n = a.rows();
  if (r1 - r0 <= kLeaf) {
    trsm_lower_unit(r1 - r0, c1 - c0, &a(r0, r0), n, &a(r0, c0), n);
    return;
  }
  const std::size_t mid = r0 + (r1 - r0) / 2;
  solve_unit_lower(a, r0, mid, c0, c1);
  gemm_update(r1 - mid, c1 - c0, mid - r0, -1.0, {&a(mid, r0), 1, n}, {&a(r0, c0), 1, n},
              &a(mid, c0), n);
  solve_unit_lower(a, mid, r1, c0, c1);
}

// Partial-pivot elimination of columns [j0, j1) over rows [j0, n), inside
// the kPanel-wide panel [p0, p1). Row swaps cover the panel's columns only;
// factor() applies them to the rest once the panel is done. Updates stay
// inside [j0, j1). Panels wider than kLeaf split in half: factor the left
// half, solve for its U12, update the right half through the kernel, then
// factor the right half. A pivot at or below singular_below[k] rejects the
// matrix.
Status factor_panel(Matrix& a, std::size_t p0, std::size_t p1, std::size_t j0, std::size_t j1,
                    const Vector& singular_below, std::vector<int>& pivots, int& sign) {
  const std::size_t n = a.rows();
  if (j1 - j0 > kLeaf) {
    const std::size_t mid = j0 + (j1 - j0) / 2;
    if (auto left = factor_panel(a, p0, p1, j0, mid, singular_below, pivots, sign);
        !left.ok()) {
      return left;
    }
    solve_unit_lower(a, j0, mid, mid, j1);
    gemm_update(n - mid, j1 - mid, mid - j0, -1.0, {&a(mid, j0), 1, n}, {&a(j0, mid), 1, n},
                &a(mid, mid), n);
    return factor_panel(a, p0, p1, mid, j1, singular_below, pivots, sign);
  }
  for (std::size_t k = j0; k < j1; ++k) {
    // Cancellation checkpoint at pivot-column granularity: one thread-local
    // read per O(n^2) of work. Progress-only for the durability layer —
    // direct factorization has no cheap resumable state, but probes still
    // see how far the elimination got.
    if (cancel::poll()) return cancel::cancelled_error("LU factorization");
    checkpoint::progress(k);
    // Partial pivot: largest |a_ik| for i >= k.
    std::size_t p = k;
    double p_abs = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > p_abs) {
        p_abs = v;
        p = i;
      }
    }
    pivots[k] = static_cast<int>(p);
    // A NaN never wins the comparison above, but once it reaches L it turns
    // its whole row to NaN, and that row ends up as some later pivot.
    if (!std::isfinite(p_abs)) {
      return make_error(ErrorCode::kExecutionFailed, "matrix has a non-finite entry");
    }
    if (p_abs <= singular_below[k]) {
      return make_error(ErrorCode::kExecutionFailed, "matrix is singular");
    }
    if (p != k) {
      sign = -sign;
      for (std::size_t j = p0; j < p1; ++j) std::swap(a(k, j), a(p, j));
    }
    double* lcol = a.col(k) + k + 1;
    rscal(n - k - 1, a(k, k), lcol);
    for (std::size_t j = k + 1; j < j1; ++j) axpy(n - k - 1, -a(k, j), lcol, a.col(j) + k + 1);
  }
  return ok_status();
}

// The row interchanges of pivots [k0, k1), in order, on columns [c0, c1),
// one column at a time as LAPACK's dlaswp does: each column's swaps then
// touch one contiguous column instead of one element per column per swap.
// Steps that kept their row are skipped, so a matrix that never pivots
// costs one pass over the pivots.
void swap_rows(Matrix& a, const std::vector<int>& pivots, std::size_t k0, std::size_t k1,
               std::size_t c0, std::size_t c1) {
  while (k0 < k1 && pivots[k0] == static_cast<int>(k0)) ++k0;
  if (k0 == k1) return;
  for (std::size_t j = c0; j < c1; ++j) {
    double* col = a.col(j);
    for (std::size_t k = k0; k < k1; ++k) {
      const auto p = static_cast<std::size_t>(pivots[k]);
      if (p != k) std::swap(col[k], col[p]);
    }
  }
}

}  // namespace

Result<LuFactorization> LuFactorization::factor(Matrix a) {
  if (!a.square()) {
    return make_error(ErrorCode::kBadArguments, "LU requires a square matrix");
  }
  const std::size_t n = a.rows();
  std::vector<int> pivots(n);
  int sign = 1;
  // Column k is singular when elimination leaves no pivot above n·eps times
  // its largest original entry: it is then a combination of the columns
  // before it to working precision, and no digit of x would be right. An
  // all-zero column gives a threshold of 0, the exact-singularity check.
  Vector singular_below(n, 0.0);
  const double tolerance = static_cast<double>(n) * std::numeric_limits<double>::epsilon();
  for (std::size_t j = 0; j < n; ++j) singular_below[j] = amax(n, a.col(j)) * tolerance;
  // Right-looking blocked elimination, as LAPACK dgetrf: factor a panel of
  // kPanel columns, apply its row swaps to the columns either side of it,
  // solve for the U12 block row beside it, then update the trailing matrix
  // with one GEMM.
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t j1 = std::min(j0 + kPanel, n);
    if (auto panel = factor_panel(a, j0, j1, j0, j1, singular_below, pivots, sign);
        !panel.ok()) {
      return panel.error();
    }
    swap_rows(a, pivots, j0, j1, 0, j0);
    swap_rows(a, pivots, j0, j1, j1, n);
    if (j1 == n) break;
    solve_unit_lower(a, j0, j1, j1, n);
    gemm_update(n - j1, n - j1, j1 - j0, -1.0, {&a(j1, j0), 1, n}, {&a(j0, j1), 1, n}, &a(j1, j1),
                n);
  }
  return LuFactorization(std::move(a), std::move(pivots), sign);
}

Result<Vector> LuFactorization::solve(const Vector& b) const {
  const std::size_t n = order();
  if (b.size() != n) {
    return make_error(ErrorCode::kBadArguments, "rhs size mismatch");
  }
  Vector x(b);
  // Apply row permutations.
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<std::size_t>(pivots_[k]);
    if (p != k) std::swap(x[k], x[p]);
  }
  // Forward substitution with unit lower triangle.
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    axpy(n - k - 1, -xk, lu_.col(k) + k + 1, x.data() + k + 1);
  }
  // Back substitution with U.
  for (std::size_t k = n; k-- > 0;) {
    x[k] /= lu_(k, k);
    const double xk = x[k];
    if (xk == 0.0) continue;
    axpy(k, -xk, lu_.col(k), x.data());
  }
  return x;
}

Result<Matrix> LuFactorization::solve(const Matrix& b) const {
  if (b.rows() != order()) {
    return make_error(ErrorCode::kBadArguments, "rhs rows mismatch");
  }
  Matrix x(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    Vector column(b.col(j), b.col(j) + b.rows());
    auto solved = solve(column);
    if (!solved.ok()) return solved.error();
    std::copy(solved.value().begin(), solved.value().end(), x.col(j));
  }
  return x;
}

double LuFactorization::determinant() const noexcept {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < order(); ++i) det *= lu_(i, i);
  return det;
}

Result<Vector> dgesv(const Matrix& a, const Vector& b) {
  if (!all_finite(b)) {
    return make_error(ErrorCode::kExecutionFailed, "right-hand side has a non-finite entry");
  }
  auto lu = LuFactorization::factor(a);
  if (!lu.ok()) return lu.error();
  auto x = lu.value().solve(b);
  if (x.ok() && !all_finite(x.value())) {
    return make_error(ErrorCode::kExecutionFailed, "solution has a non-finite entry");
  }
  return x;
}

Result<Matrix> dgesv(const Matrix& a, const Matrix& b) {
  if (!all_finite(b.storage())) {
    return make_error(ErrorCode::kExecutionFailed, "right-hand side has a non-finite entry");
  }
  auto lu = LuFactorization::factor(a);
  if (!lu.ok()) return lu.error();
  auto x = lu.value().solve(b);
  if (x.ok() && !all_finite(x.value().storage())) {
    return make_error(ErrorCode::kExecutionFailed, "solution has a non-finite entry");
  }
  return x;
}

double lu_flops(std::size_t n) noexcept {
  const double nd = static_cast<double>(n);
  return (2.0 / 3.0) * nd * nd * nd + 2.0 * nd * nd;
}

}  // namespace ns::linalg

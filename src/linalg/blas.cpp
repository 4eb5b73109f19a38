#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

namespace ns::linalg {

void axpy(double alpha, const Vector& x, Vector& y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double dot(const Vector& x, const Vector& y) noexcept {
  assert(x.size() == y.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double nrm2(const Vector& x) noexcept { return std::sqrt(dot(x, x)); }

void scal(double alpha, Vector& x) noexcept {
  for (double& v : x) v *= alpha;
}

std::size_t iamax(const Vector& x) noexcept {
  std::size_t best = 0;
  double best_abs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

void gemv(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y) {
  assert(x.size() == a.cols());
  assert(y.size() == a.rows());
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, y);
  }
  // Column sweep: contiguous reads of each column, y accumulated in place.
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = alpha * x[j];
    if (xj == 0.0) continue;
    const double* col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) y[i] += xj * col[i];
  }
}

void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y) {
  assert(x.size() == a.rows());
  assert(y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double* col = a.col(j);
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += col[i] * x[i];
    y[j] = alpha * sum + beta * y[j];
  }
}

void ger(double alpha, const Vector& x, const Vector& y, Matrix& a) {
  assert(x.size() == a.rows());
  assert(y.size() == a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double yj = alpha * y[j];
    if (yj == 0.0) continue;
    double* col = a.col(j);
    for (std::size_t i = 0; i < a.rows(); ++i) col[i] += x[i] * yj;
  }
}

namespace {

// Packed GEMM in the GotoBLAS shape. B is packed kKc rows at a time into
// kNr-column panels and A kMc×kKc at a time into kMr-row panels, both
// zero-padded to whole tiles so the micro-kernel runs fixed trip counts. The
// micro-kernel keeps a kMr×kNr tile of C in registers while it streams one A
// panel and one B panel; only partial edge tiles are written back element by
// element. The code is plain C++ on two-lane vectors, which every x86-64 and
// AArch64 target has, so it needs no -march flag; of the tile shapes tried
// at -O2 (4×4, 4×6, 6×4, 8×2, 8×3, 8×4), 8×4 ran fastest.
constexpr std::size_t kMr = 8;    // rows of C per register tile
constexpr std::size_t kNr = 4;    // columns of C per register tile
constexpr std::size_t kKc = 256;  // depth of one packed A/B panel pair
constexpr std::size_t kMc = 128;  // rows of A per packed block (256 KiB at kKc)
static_assert(kMc % kMr == 0);

using V2 = double __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(V2) / sizeof(double);
constexpr std::size_t kMv = kMr / kLanes;  // vectors per tile column
// The unroll counts in micro_kernel are literal: kMv and kNr.
static_assert(kLanes == 2 && kMv == 4 && kNr == 4);

inline V2 load(const double* p) noexcept {
  V2 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, V2 v) noexcept { __builtin_memcpy(p, &v, sizeof v); }

constexpr std::size_t round_up(std::size_t x, std::size_t to) { return (x + to - 1) / to * to; }

// Rows [0, mc) × depth [0, kc) of `a` into kMr-row panels: element (i, l)
// of panel r lands at out[r * kc + l * kMr + i], zero past row mc.
void pack_a(std::size_t mc, std::size_t kc, BlockView a, double* out) noexcept {
  for (std::size_t r = 0; r < mc; r += kMr) {
    const std::size_t rows = std::min(kMr, mc - r);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = a.data + r * a.row_stride + l * a.col_stride;
      for (std::size_t i = 0; i < rows; ++i) out[i] = src[i * a.row_stride];
      for (std::size_t i = rows; i < kMr; ++i) out[i] = 0.0;
      out += kMr;
    }
  }
}

// Depth [0, kc) × columns [0, n) of `b` into kNr-column panels: element
// (l, j) of panel c lands at out[c * kc + l * kNr + j], zero past column n.
void pack_b(std::size_t kc, std::size_t n, BlockView b, double* out) noexcept {
  for (std::size_t c = 0; c < n; c += kNr) {
    const std::size_t cols = std::min(kNr, n - c);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = b.data + l * b.row_stride + c * b.col_stride;
      for (std::size_t j = 0; j < cols; ++j) out[j] = src[j * b.col_stride];
      for (std::size_t j = cols; j < kNr; ++j) out[j] = 0.0;
      out += kNr;
    }
  }
}

// C[0:rows, 0:cols] += alpha * (A panel)(B panel) over depth kc.
void micro_kernel(std::size_t kc, const double* pa, const double* pb, double alpha, double* c,
                  std::size_t ldc, std::size_t rows, std::size_t cols) noexcept {
  V2 acc[kNr][kMv] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    V2 a[kMv];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kMv; ++v) a[v] = load(pa + v * kLanes);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kNr; ++j) {
      const V2 b = {pb[j], pb[j]};
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kMv; ++v) acc[j][v] += a[v] * b;
    }
    pa += kMr;
    pb += kNr;
  }
  const V2 scale = {alpha, alpha};
  if (rows == kMr && cols == kNr) {
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kNr; ++j) {
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kMv; ++v) {
        double* dst = c + j * ldc + v * kLanes;
        store(dst, load(dst) + scale * acc[j][v]);
      }
    }
    return;
  }
  double tile[kNr][kMr];
  __builtin_memcpy(tile, acc, sizeof tile);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) c[j * ldc + i] += alpha * tile[j][i];
  }
}

}  // namespace

void gemm_update(std::size_t m, std::size_t n, std::size_t k, double alpha, BlockView a,
                 BlockView b, double* c, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  const std::size_t depth = std::min(k, kKc);
  const auto packed_a =
      std::make_unique_for_overwrite<double[]>(std::min(round_up(m, kMr), kMc) * depth);
  const auto packed_b = std::make_unique_for_overwrite<double[]>(round_up(n, kNr) * depth);
  for (std::size_t p = 0; p < k; p += kKc) {
    const std::size_t kc = std::min(kKc, k - p);
    pack_b(kc, n, {b.data + p * b.row_stride, b.row_stride, b.col_stride}, packed_b.get());
    for (std::size_t ic = 0; ic < m; ic += kMc) {
      const std::size_t mc = std::min(kMc, m - ic);
      pack_a(mc, kc, {a.data + ic * a.row_stride + p * a.col_stride, a.row_stride, a.col_stride},
             packed_a.get());
      for (std::size_t jr = 0; jr < n; jr += kNr) {
        for (std::size_t ir = 0; ir < mc; ir += kMr) {
          micro_kernel(kc, packed_a.get() + ir * kc, packed_b.get() + jr * kc, alpha,
                       c + (ic + ir) + jr * ldc, ldc, std::min(kMr, mc - ir),
                       std::min(kNr, n - jr));
        }
      }
    }
  }
}

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  if (beta == 0.0) {
    std::fill(c.storage().begin(), c.storage().end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, c.storage());
  }
  gemm_update(a.rows(), b.cols(), a.cols(), alpha, {a.data(), 1, a.rows()}, {b.data(), 1, b.rows()},
              c.data(), c.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, b, 0.0, c);
  return c;
}

double residual_inf(const Matrix& a, const Vector& x, const Vector& b) {
  Vector r(b);
  gemv(1.0, a, x, -1.0, r);  // r = 1*A*x + (-1)*b = Ax - b
  double m = 0.0;
  for (const double v : r) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace ns::linalg

#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
// Nr-column panels and A kMc×kKc at a time into Mr-row panels, both
// zero-padded to whole tiles so the micro-kernel runs fixed trip counts. The
// micro-kernel keeps an Mr×Nr tile of C in registers while it streams one A
// panel and one B panel; only partial edge tiles are written back element by
// element. The packing and blocking are shared; the tile shape comes with
// the micro-kernel, of which there are two, picked once per process:
//
//  * portable: 8×4 in plain C++ on two-lane vectors, which every x86-64 and
//    AArch64 target has, so it needs no -march flag; of the tile shapes
//    tried at -O2 (4×4, 4×6, 6×4, 8×2, 8×3, 8×4), 8×4 ran fastest.
//  * avx2: 8×6 on four-lane FMA vectors, compiled for AVX2+FMA by a target
//    attribute and run only where the CPU reports both.
constexpr std::size_t kKc = 256;  // depth of one packed A/B panel pair
constexpr std::size_t kMc = 128;  // rows of A per packed block (256 KiB at kKc)

using MicroKernel = void (*)(std::size_t kc, const double* pa, const double* pb, double alpha,
                             double* c, std::size_t ldc, std::size_t rows,
                             std::size_t cols) noexcept;

constexpr std::size_t round_up(std::size_t x, std::size_t to) { return (x + to - 1) / to * to; }

// Rows [0, mc) × depth [0, kc) of `a` into Mr-row panels: element (i, l)
// of panel r lands at out[r * kc + l * Mr + i], zero past row mc.
template <std::size_t Mr>
void pack_a(std::size_t mc, std::size_t kc, BlockView a, double* out) noexcept {
  for (std::size_t r = 0; r < mc; r += Mr) {
    const std::size_t rows = std::min(Mr, mc - r);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = a.data + r * a.row_stride + l * a.col_stride;
      for (std::size_t i = 0; i < rows; ++i) out[i] = src[i * a.row_stride];
      for (std::size_t i = rows; i < Mr; ++i) out[i] = 0.0;
      out += Mr;
    }
  }
}

// Depth [0, kc) × columns [0, n) of `b` into Nr-column panels: element
// (l, j) of panel c lands at out[c * kc + l * Nr + j], zero past column n.
template <std::size_t Nr>
void pack_b(std::size_t kc, std::size_t n, BlockView b, double* out) noexcept {
  for (std::size_t c = 0; c < n; c += Nr) {
    const std::size_t cols = std::min(Nr, n - c);
    for (std::size_t l = 0; l < kc; ++l) {
      const double* src = b.data + l * b.row_stride + c * b.col_stride;
      for (std::size_t j = 0; j < cols; ++j) out[j] = src[j * b.col_stride];
      for (std::size_t j = cols; j < Nr; ++j) out[j] = 0.0;
      out += Nr;
    }
  }
}

template <std::size_t Mr, std::size_t Nr, MicroKernel Kernel>
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha, BlockView a,
                  BlockView b, double* c, std::size_t ldc) {
  static_assert(kMc % Mr == 0);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  const std::size_t depth = std::min(k, kKc);
  const auto packed_a =
      std::make_unique_for_overwrite<double[]>(std::min(round_up(m, Mr), kMc) * depth);
  const auto packed_b = std::make_unique_for_overwrite<double[]>(round_up(n, Nr) * depth);
  for (std::size_t p = 0; p < k; p += kKc) {
    const std::size_t kc = std::min(kKc, k - p);
    pack_b<Nr>(kc, n, {b.data + p * b.row_stride, b.row_stride, b.col_stride}, packed_b.get());
    for (std::size_t ic = 0; ic < m; ic += kMc) {
      const std::size_t mc = std::min(kMc, m - ic);
      pack_a<Mr>(mc, kc,
                 {a.data + ic * a.row_stride + p * a.col_stride, a.row_stride, a.col_stride},
                 packed_a.get());
      for (std::size_t jr = 0; jr < n; jr += Nr) {
        for (std::size_t ir = 0; ir < mc; ir += Mr) {
          Kernel(kc, packed_a.get() + ir * kc, packed_b.get() + jr * kc, alpha,
                 c + (ic + ir) + jr * ldc, ldc, std::min(Mr, mc - ir), std::min(Nr, n - jr));
        }
      }
    }
  }
}

namespace portable {

constexpr std::size_t kMr = 8;  // rows of C per register tile
constexpr std::size_t kNr = 4;  // columns of C per register tile

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

}  // namespace portable

#if defined(__x86_64__)

namespace avx2 {

// Twelve four-lane accumulators (two per tile column), two A vectors and
// one B broadcast: 15 of the 16 ymm registers, so nothing spills.
constexpr std::size_t kMr = 8;  // rows of C per register tile
constexpr std::size_t kNr = 6;  // columns of C per register tile

__attribute__((target("avx2,fma"))) void micro_kernel(std::size_t kc, const double* pa,
                                                      const double* pb, double alpha, double* c,
                                                      std::size_t ldc, std::size_t rows,
                                                      std::size_t cols) noexcept {
  __m256d acc[kNr][2];
#pragma GCC unroll 6
  for (std::size_t j = 0; j < kNr; ++j) acc[j][0] = acc[j][1] = _mm256_setzero_pd();
  for (std::size_t l = 0; l < kc; ++l) {
    const __m256d a0 = _mm256_loadu_pd(pa);
    const __m256d a1 = _mm256_loadu_pd(pa + 4);
#pragma GCC unroll 6
    for (std::size_t j = 0; j < kNr; ++j) {
      const __m256d b = _mm256_broadcast_sd(pb + j);
      acc[j][0] = _mm256_fmadd_pd(a0, b, acc[j][0]);
      acc[j][1] = _mm256_fmadd_pd(a1, b, acc[j][1]);
    }
    pa += kMr;
    pb += kNr;
  }
  const __m256d scale = _mm256_set1_pd(alpha);
  if (rows == kMr && cols == kNr) {
#pragma GCC unroll 6
    for (std::size_t j = 0; j < kNr; ++j) {
      double* dst = c + j * ldc;
      _mm256_storeu_pd(dst, _mm256_fmadd_pd(scale, acc[j][0], _mm256_loadu_pd(dst)));
      _mm256_storeu_pd(dst + 4, _mm256_fmadd_pd(scale, acc[j][1], _mm256_loadu_pd(dst + 4)));
    }
    return;
  }
  double tile[kNr][kMr];
  for (std::size_t j = 0; j < kNr; ++j) {
    _mm256_storeu_pd(tile[j], acc[j][0]);
    _mm256_storeu_pd(tile[j] + 4, acc[j][1]);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) c[j * ldc + i] += alpha * tile[j][i];
  }
}

}  // namespace avx2

bool has_avx2_fma() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
  }();
  return supported;
}

#else

bool has_avx2_fma() noexcept { return false; }

#endif

}  // namespace

const char* gemm_isa() noexcept {
#if defined(__x86_64__)
  return has_avx2_fma() ? "avx2+fma" : "sse2";
#else
  return "portable";
#endif
}

namespace detail {

bool gemm_kernel_supported(GemmKernel kernel) noexcept {
  return kernel == GemmKernel::kPortable || has_avx2_fma();
}

void gemm_update_with(GemmKernel kernel, std::size_t m, std::size_t n, std::size_t k,
                      double alpha, BlockView a, BlockView b, double* c, std::size_t ldc) {
  assert(gemm_kernel_supported(kernel));
#if defined(__x86_64__)
  if (kernel == GemmKernel::kAvx2Fma) {
    gemm_blocked<avx2::kMr, avx2::kNr, avx2::micro_kernel>(m, n, k, alpha, a, b, c, ldc);
    return;
  }
#endif
  gemm_blocked<portable::kMr, portable::kNr, portable::micro_kernel>(m, n, k, alpha, a, b, c,
                                                                     ldc);
}

}  // namespace detail

void gemm_update(std::size_t m, std::size_t n, std::size_t k, double alpha, BlockView a,
                 BlockView b, double* c, std::size_t ldc) {
  detail::gemm_update_with(
      has_avx2_fma() ? detail::GemmKernel::kAvx2Fma : detail::GemmKernel::kPortable, m, n, k,
      alpha, a, b, c, ldc);
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

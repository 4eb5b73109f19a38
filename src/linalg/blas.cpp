#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <utility>

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
// panel and one B panel; partial edge tiles write back only their own rows
// and columns. The packing and blocking are shared; the tile shape comes
// with the micro-kernel, of which there are three, the widest the CPU has
// picked once per process:
//
//  * portable: 8×4 in plain C++ on two-lane vectors, which every x86-64 and
//    AArch64 target has, so it needs no -march flag; of the tile shapes
//    tried at -O2 (4×4, 4×6, 6×4, 8×2, 8×3, 8×4), 8×4 ran fastest.
//  * avx2: 8×6 on four-lane FMA vectors, compiled for AVX2+FMA by a target
//    attribute and run only where the CPU reports both.
//  * avx512: 16×12 on eight-lane FMA vectors, compiled for AVX-512F the same
//    way and run only where the CPU reports it.
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
  // The same fused multiply-add as the full-tile write-back, spelled out so
  // that it does not hang on the compiler contracting a multiply and an add:
  // edge tiles then round as the AVX-512 kernel's masked write-back does.
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) {
      c[j * ldc + i] = std::fma(alpha, tile[j][i], c[j * ldc + i]);
    }
  }
}

}  // namespace avx2

namespace avx512 {

// Twenty-four eight-lane accumulators (two per tile column), two A vectors
// and one B broadcast: 27 of the 32 zmm registers, so nothing spills.
constexpr std::size_t kMr = 16;  // rows of C per register tile
constexpr std::size_t kNr = 12;  // columns of C per register tile

__attribute__((target("avx512f"))) void micro_kernel(std::size_t kc, const double* pa,
                                                     const double* pb, double alpha, double* c,
                                                     std::size_t ldc, std::size_t rows,
                                                     std::size_t cols) noexcept {
  __m512d acc[kNr][2];
#pragma GCC unroll 12
  for (std::size_t j = 0; j < kNr; ++j) acc[j][0] = acc[j][1] = _mm512_setzero_pd();
  for (std::size_t l = 0; l < kc; ++l) {
    const __m512d a0 = _mm512_loadu_pd(pa);
    const __m512d a1 = _mm512_loadu_pd(pa + 8);
#pragma GCC unroll 12
    for (std::size_t j = 0; j < kNr; ++j) {
      const __m512d b = _mm512_set1_pd(pb[j]);
      acc[j][0] = _mm512_fmadd_pd(a0, b, acc[j][0]);
      acc[j][1] = _mm512_fmadd_pd(a1, b, acc[j][1]);
    }
    pa += kMr;
    pb += kNr;
  }
  // Every tile writes back under lane masks: rows past `rows` are neither
  // read nor written, and columns past `cols` are skipped. The column loop
  // is unrolled so that each accumulator index is a constant and the tile
  // stays in registers.
  const __m512d scale = _mm512_set1_pd(alpha);
  const auto lo = static_cast<__mmask8>(rows >= 8 ? 0xFF : (1u << rows) - 1);
  const auto hi = static_cast<__mmask8>(rows <= 8 ? 0 : (1u << (rows - 8)) - 1);
#pragma GCC unroll 12
  for (std::size_t j = 0; j < kNr; ++j) {
    if (j == cols) break;
    double* dst = c + j * ldc;
    _mm512_mask_storeu_pd(dst, lo,
                          _mm512_fmadd_pd(scale, acc[j][0], _mm512_maskz_loadu_pd(lo, dst)));
    if (hi != 0) {
      _mm512_mask_storeu_pd(
          dst + 8, hi, _mm512_fmadd_pd(scale, acc[j][1], _mm512_maskz_loadu_pd(hi, dst + 8)));
    }
  }
}

}  // namespace avx512

bool has_avx2_fma() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
  }();
  return supported;
}

bool has_avx512f() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported;
}

// The raw-span level-1 loops under the factorizations' leaves. They are
// compiled for AVX2 alone, without FMA, so the compiler cannot fuse a
// multiply into the add after it: every element rounds exactly as the plain
// loop rounds it, and the results do not depend on the ISA.
__attribute__((target("avx2"))) void axpy_avx2(std::size_t n, double alpha, const double* x,
                                               double* y) noexcept {
  const __m256d a = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 =
        _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_mul_pd(a, _mm256_loadu_pd(x + i)));
    const __m256d y1 =
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4), _mm256_mul_pd(a, _mm256_loadu_pd(x + i + 4)));
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
  }
  if (i + 4 <= n) {
    const __m256d y0 =
        _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_mul_pd(a, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, y0);
    i += 4;
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void rscal_avx2(std::size_t n, double d, double* x) noexcept {
  const __m256d v = _mm256_set1_pd(d);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), v));
  for (; i < n; ++i) x[i] /= d;
}

// Step K of a 16-row unit lower solve on a column held in four registers:
// rows (K, 16) -= L(K+1:16, K) * x[K]. The register holding row K keeps rows
// up to K by a blend. K is a template argument so that the lane broadcast
// and the blend take immediates. Like axpy_avx2, it is compiled without FMA.
template <std::size_t K>
__attribute__((target("avx2"))) inline void trsv16_step(const double* l, std::size_t ldl,
                                                        __m256d (&x)[4]) noexcept {
  constexpr std::size_t q = K / 4;
  constexpr int r = K % 4;
  const __m256d xk = _mm256_permute4x64_pd(x[q], r * 0x55);
  const double* lk = l + K * ldl;
  if constexpr (r < 3) {
    const __m256d t = _mm256_sub_pd(x[q], _mm256_mul_pd(_mm256_loadu_pd(lk + 4 * q), xk));
    x[q] = _mm256_blend_pd(x[q], t, (0xF << (r + 1)) & 0xF);
  }
#pragma GCC unroll 4
  for (std::size_t v = q + 1; v < 4; ++v) {
    x[v] = _mm256_sub_pd(x[v], _mm256_mul_pd(_mm256_loadu_pd(lk + 4 * v), xk));
  }
}

// x[0:16) = L^-1 x[0:16) for the unit lower triangle L at l, one column kept
// in registers through all fifteen steps.
template <std::size_t... K>
__attribute__((target("avx2"))) void trsv16(const double* l, std::size_t ldl, double* x,
                                            std::index_sequence<K...>) noexcept {
  __m256d v[4] = {_mm256_loadu_pd(x), _mm256_loadu_pd(x + 4), _mm256_loadu_pd(x + 8),
                  _mm256_loadu_pd(x + 12)};
  (trsv16_step<K>(l, ldl, v), ...);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < 4; ++q) _mm256_storeu_pd(x + 4 * q, v[q]);
}

#else

bool has_avx2_fma() noexcept { return false; }
bool has_avx512f() noexcept { return false; }

#endif

// The micro-kernel gemm_update runs: the widest one the CPU has.
detail::GemmKernel best_kernel() noexcept {
  static const detail::GemmKernel kernel = has_avx512f()    ? detail::GemmKernel::kAvx512
                                           : has_avx2_fma() ? detail::GemmKernel::kAvx2Fma
                                                            : detail::GemmKernel::kPortable;
  return kernel;
}

}  // namespace

const char* gemm_isa() noexcept {
  switch (best_kernel()) {
    case detail::GemmKernel::kAvx512:
      return "avx512";
    case detail::GemmKernel::kAvx2Fma:
      return "avx2+fma";
    case detail::GemmKernel::kPortable:
      break;
  }
#if defined(__x86_64__)
  return "sse2";
#else
  return "portable";
#endif
}

namespace detail {

bool gemm_kernel_supported(GemmKernel kernel) noexcept {
  switch (kernel) {
    case GemmKernel::kAvx512:
      return has_avx512f();
    case GemmKernel::kAvx2Fma:
      return has_avx2_fma();
    case GemmKernel::kPortable:
      return true;
  }
  return false;
}

void gemm_update_with(GemmKernel kernel, std::size_t m, std::size_t n, std::size_t k,
                      double alpha, BlockView a, BlockView b, double* c, std::size_t ldc) {
  assert(gemm_kernel_supported(kernel));
  switch (kernel) {
#if defined(__x86_64__)
    case GemmKernel::kAvx512:
      gemm_blocked<avx512::kMr, avx512::kNr, avx512::micro_kernel>(m, n, k, alpha, a, b, c, ldc);
      return;
    case GemmKernel::kAvx2Fma:
      gemm_blocked<avx2::kMr, avx2::kNr, avx2::micro_kernel>(m, n, k, alpha, a, b, c, ldc);
      return;
#endif
    default:
      gemm_blocked<portable::kMr, portable::kNr, portable::micro_kernel>(m, n, k, alpha, a, b,
                                                                         c, ldc);
  }
}

}  // namespace detail

void gemm_update(std::size_t m, std::size_t n, std::size_t k, double alpha, BlockView a,
                 BlockView b, double* c, std::size_t ldc) {
  detail::gemm_update_with(best_kernel(), m, n, k, alpha, a, b, c, ldc);
}

void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept {
#if defined(__x86_64__)
  if (has_avx2_fma()) return axpy_avx2(n, alpha, x, y);
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void rscal(std::size_t n, double d, double* x) noexcept {
#if defined(__x86_64__)
  if (has_avx2_fma()) return rscal_avx2(n, d, x);
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] /= d;
}

double amax(std::size_t n, const double* x) noexcept {
  // std::max keeps its first argument when the second is NaN.
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void trsm_lower_unit(std::size_t m, std::size_t ncols, const double* l, std::size_t ldl,
                     double* b, std::size_t ldb) noexcept {
  for (std::size_t j = 0; j < ncols; ++j) {
    double* x = b + j * ldb;
#if defined(__x86_64__)
    if (m == 16 && has_avx2_fma()) {
      trsv16(l, ldl, x, std::make_index_sequence<15>{});
      continue;
    }
#endif
    for (std::size_t k = 0; k + 1 < m; ++k) axpy(m - k - 1, -x[k], l + k * ldl + k + 1, x + k + 1);
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

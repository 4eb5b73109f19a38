// BLAS-style dense kernels (levels 1-3). Naming follows the BLAS tradition
// the original NetSolve servers exposed; signatures are C++-native.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace ns::linalg {

// ---- Level 1 ----

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y) noexcept;

/// <x, y>
double dot(const Vector& x, const Vector& y) noexcept;

/// ||x||_2
double nrm2(const Vector& x) noexcept;

/// x *= alpha
void scal(double alpha, Vector& x) noexcept;

/// Index of max |x_i| (0 for empty input).
std::size_t iamax(const Vector& x) noexcept;

/// y[0:n) += alpha * x[0:n) on raw spans. Each element is one multiply and
/// one add, never fused, so it rounds exactly as the plain loop does on every
/// ISA. It runs on AVX2 vectors on CPUs that pass the AVX2 GEMM kernel's
/// check (AVX2 and FMA).
void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept;

/// x[0:n) /= d: one correctly rounded division per element, on AVX2 where
/// axpy runs on it.
void rscal(std::size_t n, double d, double* x) noexcept;

/// Largest |x_i| over x[0:n), skipping NaN entries (0 for n == 0).
double amax(std::size_t n, const double* x) noexcept;

// ---- Level 2 ----

/// y = alpha * A x + beta * y
void gemv(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y);

/// y = alpha * A^T x + beta * y
void gemv_t(double alpha, const Matrix& a, const Vector& x, double beta, Vector& y);

/// A += alpha * x y^T (rank-1 update)
void ger(double alpha, const Vector& x, const Vector& y, Matrix& a);

/// B = L^-1 B for the unit lower triangle L of the m×m column-major block at
/// l (leading dimension ldl; its diagonal and upper part do not count) and the
/// m×ncols column-major block B at b (leading dimension ldb): the column loop
/// x[k+1:m) -= L(k+1:m, k) * x[k] on the raw-span axpy, so every element rounds
/// as in the plain loop. Where axpy runs on AVX2, a 16-row solve (LU's leaf
/// height) keeps each column in registers instead of making fifteen calls.
void trsm_lower_unit(std::size_t m, std::size_t ncols, const double* l, std::size_t ldl,
                     double* b, std::size_t ldb) noexcept;

// ---- Level 3 ----

/// Read-only strided view of a sub-matrix: element (i, j) is
/// data[i * row_stride + j * col_stride]. A block of a column-major Matrix
/// has row_stride 1 and col_stride rows(); swapping the strides transposes it.
struct BlockView {
  const double* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// C += alpha * A B for an m×k view A and a k×n view B, with C column-major
/// at leading dimension ldc. This is the one packed, register-blocked kernel
/// under gemm and the blocked LU and Cholesky factorizations; C must not
/// overlap A or B. Its micro-kernel is picked at run time (gemm_isa()).
void gemm_update(std::size_t m, std::size_t n, std::size_t k, double alpha, BlockView a,
                 BlockView b, double* c, std::size_t ldc);

/// Instruction set of the micro-kernel gemm_update runs on this host:
/// "avx512" where the CPU has AVX-512F, else "avx2+fma" where it has both,
/// else "sse2" ("portable" off x86-64).
/// Chosen once per process; benches and the server log it so that kernel
/// rates from different hosts are never compared as like for like.
const char* gemm_isa() noexcept;

namespace detail {

/// The micro-kernels gemm_update can dispatch to. This is a test seam, not
/// a user option: gemm_update always picks the fastest one the CPU has.
enum class GemmKernel { kPortable, kAvx2Fma, kAvx512 };

/// Whether `kernel` can run on this CPU (kPortable always can).
bool gemm_kernel_supported(GemmKernel kernel) noexcept;

/// gemm_update on the given micro-kernel, which must be supported.
void gemm_update_with(GemmKernel kernel, std::size_t m, std::size_t n, std::size_t k,
                      double alpha, BlockView a, BlockView b, double* c, std::size_t ldc);

}  // namespace detail

/// C = alpha * A B + beta * C, on gemm_update. As in BLAS, beta == 0
/// overwrites C without reading it (NaNs in C do not survive).
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c);

/// Convenience: C = A B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Residual ||A x - b||_inf, the standard check used by the tests.
double residual_inf(const Matrix& a, const Vector& x, const Vector& b);

}  // namespace ns::linalg

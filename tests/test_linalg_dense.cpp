// Tests for the dense numerical substrate: matrix type, BLAS kernels, LU,
// Cholesky, QR, eigensolvers, tridiagonal solve. Heavy on TEST_P property
// sweeps: residual bounds on random systems across sizes and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/rating.hpp"
#include "linalg/tridiag.hpp"

namespace ns::linalg {
namespace {

// ---- Matrix basics ----

TEST(MatrixTest, ColumnMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
  EXPECT_EQ(m.col(1)[0], 3);
}

TEST(MatrixTest, Identity) {
  const Matrix i = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Transpose) {
  Rng rng(1);
  const Matrix a = Matrix::random(3, 5, rng);
  const Matrix at = a.transposed();
  ASSERT_EQ(at.rows(), 5u);
  ASSERT_EQ(at.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(at(j, i), a(i, j));
  }
}

TEST(MatrixTest, Norms) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 1) = -4;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(MatrixTest, RandomSpdIsSymmetric) {
  Rng rng(2);
  const Matrix a = Matrix::random_spd(16, rng);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
    }
  }
}

TEST(MatrixTest, DiagDominantHasStrongDiagonal) {
  Rng rng(3);
  const Matrix a = Matrix::random_diag_dominant(20, rng);
  for (std::size_t i = 0; i < 20; ++i) {
    double off = 0;
    for (std::size_t j = 0; j < 20; ++j) {
      if (j != i) off += std::abs(a(i, j));
    }
    EXPECT_GT(a(i, i), off);
  }
}

// ---- BLAS level 1 ----

TEST(BlasTest, AxpyDotNrm2Scal) {
  Vector x{1, 2, 3};
  Vector y{4, 5, 6};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{6, 9, 12}));
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(Vector{3, 4}), 5.0);
  Vector z{1, -2};
  scal(-3.0, z);
  EXPECT_EQ(z, (Vector{-3, 6}));
}

TEST(BlasTest, Iamax) {
  EXPECT_EQ(iamax(Vector{1, -5, 3}), 1u);
  EXPECT_EQ(iamax(Vector{}), 0u);
  EXPECT_EQ(iamax(Vector{0, 0, 0}), 0u);
}

// The raw-span kernels under the LU and Cholesky leaves run vector bodies
// where the CPU has them. Each must round every element exactly as the plain
// loop it replaced, so each is compared bitwise against that loop, at every
// length around the vector widths, with a guard element either side.
const std::size_t kLeafLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33};

bool same_bits(const Vector& x, const Vector& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(BlasTest, RawAxpyMatchesPlainLoopBitwise) {
  for (const std::size_t n : kLeafLengths) {
    Rng rng(100 + n);
    const Vector x = random_vector(n, rng);
    const Vector y0 = random_vector(n + 2, rng);
    const double s = rng.uniform(-3.0, 3.0);
    Vector plain = y0;
    for (std::size_t i = 0; i < n; ++i) plain[i + 1] -= x[i] * s;
    Vector fast = y0;
    axpy(n, -s, x.data(), fast.data() + 1);
    EXPECT_TRUE(same_bits(fast, plain)) << "n " << n;
  }
}

TEST(BlasTest, RscalMatchesPlainLoopBitwise) {
  for (const std::size_t n : kLeafLengths) {
    Rng rng(200 + n);
    const Vector x0 = random_vector(n + 2, rng);
    const double d = rng.uniform(0.1, 3.0);
    Vector plain = x0;
    for (std::size_t i = 0; i < n; ++i) plain[i + 1] /= d;
    Vector fast = x0;
    rscal(n, d, fast.data() + 1);
    EXPECT_TRUE(same_bits(fast, plain)) << "n " << n;
  }
}

TEST(BlasTest, AmaxMatchesPlainLoopBitwise) {
  for (const std::size_t n : kLeafLengths) {
    Rng rng(300 + n);
    Vector x = random_vector(n, rng);
    if (n > 2) x[n / 2] = std::nan("");  // skipped, as std::max skips it
    double plain = 0.0;
    for (const double v : x) plain = std::max(plain, std::abs(v));
    const double fast = amax(n, x.data());
    EXPECT_EQ(std::memcmp(&fast, &plain, sizeof fast), 0) << "n " << n;
  }
}

TEST(BlasTest, TrsmLowerUnitMatchesPlainLoopBitwise) {
  // The leaves' own height, 16, runs in registers where axpy runs on AVX2.
  std::vector<std::size_t> heights(std::begin(kLeafLengths), std::end(kLeafLengths));
  heights.insert(heights.end(), {15, 16, 17});
  for (const std::size_t m : heights) {
    Rng rng(400 + m);
    // L inside a taller matrix (leading dimension m + 3); B is three columns
    // of a matrix with a guard row either side of the m solved rows.
    const Matrix l = Matrix::random(m + 3, m, rng);
    const Matrix b0 = Matrix::random(m + 2, 3, rng);
    Matrix plain = b0;
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < m; ++k) {
        const double xk = plain(k + 1, j);
        for (std::size_t i = k + 1; i < m; ++i) plain(i + 1, j) -= l(i, k) * xk;
      }
    }
    Matrix fast = b0;
    trsm_lower_unit(m, 3, l.data(), l.rows(), fast.data() + 1, fast.rows());
    EXPECT_TRUE(same_bits(fast.storage(), plain.storage())) << "m " << m;
  }
}

// ---- BLAS level 2/3 ----

TEST(BlasTest, GemvKnown) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Vector x{5, 6};
  Vector y{1, 1};
  gemv(1.0, a, x, 1.0, y);  // y = A x + y
  EXPECT_EQ(y, (Vector{18, 40}));
}

TEST(BlasTest, GemvTransposed) {
  Rng rng(4);
  const Matrix a = Matrix::random(4, 3, rng);
  const Vector x = random_vector(4, rng);
  Vector y1(3, 0.0);
  gemv_t(1.0, a, x, 0.0, y1);
  Vector y2(3, 0.0);
  gemv(1.0, a.transposed(), x, 0.0, y2);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-12);
}

TEST(BlasTest, GerRank1Update) {
  Matrix a(2, 2);
  ger(2.0, Vector{1, 2}, Vector{3, 4}, a);
  EXPECT_DOUBLE_EQ(a(0, 0), 6);
  EXPECT_DOUBLE_EQ(a(0, 1), 8);
  EXPECT_DOUBLE_EQ(a(1, 0), 12);
  EXPECT_DOUBLE_EQ(a(1, 1), 16);
}

TEST(BlasTest, GemmAgainstNaiveReference) {
  Rng rng(5);
  const Matrix a = Matrix::random(17, 23, rng);
  const Matrix b = Matrix::random(23, 11, rng);
  const Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double ref = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) ref += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), ref, 1e-10);
    }
  }
}

TEST(BlasTest, GemmAlphaBeta) {
  Rng rng(6);
  const Matrix a = Matrix::random(8, 8, rng);
  const Matrix b = Matrix::random(8, 8, rng);
  Matrix c = Matrix::identity(8);
  gemm(2.0, a, b, 3.0, c);  // C = 2AB + 3I
  Matrix ref = matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + (i == j ? 3.0 : 0.0), 1e-10);
    }
  }
}

TEST(BlasTest, GemmIdentityIsNoop) {
  Rng rng(7);
  const Matrix a = Matrix::random(12, 12, rng);
  const Matrix c = matmul(a, Matrix::identity(12));
  EXPECT_LT(max_abs_diff(a, c), 1e-14);
}

TEST(BlasTest, GemmAssociativityProperty) {
  Rng rng(8);
  const Matrix a = Matrix::random(6, 7, rng);
  const Matrix b = Matrix::random(7, 5, rng);
  const Matrix c = Matrix::random(5, 4, rng);
  const Matrix left = matmul(matmul(a, b), c);
  const Matrix right = matmul(a, matmul(b, c));
  EXPECT_LT(max_abs_diff(left, right), 1e-10);
}

// Shapes straddle every block edge of the packed kernel: the 8-row and
// 4-column register tile, the 128-row A block and the 256-deep panel pair.
struct GemmShape {
  std::size_t m, n, k;
};

class GemmShapeTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapeTest, MatchesNaiveReferenceForAlphaBeta) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000003 + n * 1009 + k);
  const Matrix a = Matrix::random(m, k, rng);
  const Matrix b = Matrix::random(k, n, rng);
  const Matrix c0 = Matrix::random(m, n, rng);
  const double combos[][2] = {{1.0, 0.0}, {-1.5, 0.0}, {2.0, 1.0}, {0.5, -3.0}, {0.0, 2.0}};
  for (const auto& [alpha, beta] : combos) {
    // beta == 0 must overwrite C without reading it, NaNs included.
    Matrix c = beta == 0.0 ? Matrix(m, n, std::nan("")) : c0;
    gemm(alpha, a, b, beta, c);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        double ab = 0.0;
        for (std::size_t l = 0; l < k; ++l) ab += a(i, l) * b(l, j);
        const double ref = alpha * ab + (beta == 0.0 ? 0.0 : beta * c0(i, j));
        ASSERT_NEAR(c(i, j), ref, 1e-13 * static_cast<double>(k + 1))
            << "alpha " << alpha << " beta " << beta << " at (" << i << ", " << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapeTest,
                         ::testing::Values(GemmShape{1, 1, 1}, GemmShape{7, 5, 3},
                                           GemmShape{9, 13, 257}, GemmShape{130, 70, 300},
                                           GemmShape{0, 5, 3}, GemmShape{4, 0, 3},
                                           GemmShape{4, 5, 0}));

TEST(BlasTest, GemmUpdateOnTransposedStridedViews) {
  // gemm_update reads sub-blocks in place: C(2:9, 1:6) += A^T B with A^T
  // a transposed view of a 5x7 block and B a block of a taller matrix.
  Rng rng(9);
  const Matrix at = Matrix::random(5, 7, rng);  // A = at^T is 7x5
  const Matrix big_b = Matrix::random(9, 6, rng);
  Matrix c(10, 8, 1.0);
  gemm_update(7, 5, 5, 2.0, {at.data(), at.rows(), 1}, {big_b.col(1) + 3, 1, big_b.rows()},
              &c(2, 1), c.rows());
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 10; ++i) {
      double ref = 1.0;
      if (i >= 2 && i < 9 && j >= 1 && j < 6) {
        for (std::size_t l = 0; l < 5; ++l) ref += 2.0 * at(l, i - 2) * big_b(3 + l, j);
      }
      EXPECT_NEAR(c(i, j), ref, 1e-13) << "(" << i << ", " << j << ")";
    }
  }
}

// Each micro-kernel on its own, through the test seam, against a naive
// triple loop: every host runs the portable kernel, and hosts with AVX2+FMA
// or AVX-512F also run those, whichever gemm_update would pick.
class GemmKernelTest : public ::testing::TestWithParam<detail::GemmKernel> {
 protected:
  void SetUp() override {
    if (!detail::gemm_kernel_supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks the kernel's instructions";
    }
  }

  // C += alpha A B on views, checked against the naive sum. The bound is the
  // classic k-term dot product error, (k + 2) eps times the magnitudes.
  static void expect_matches_naive(std::size_t m, std::size_t n, std::size_t k, double alpha,
                                   BlockView a, BlockView b, Matrix& c) {
    const Matrix c0 = c;
    detail::gemm_update_with(GetParam(), m, n, k, alpha, a, b, c.data(), c.rows());
    const double eps = std::numeric_limits<double>::epsilon();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        double ab = 0.0;
        double mag = 0.0;
        for (std::size_t l = 0; l < k; ++l) {
          const double term = a.data[i * a.row_stride + l * a.col_stride] *
                              b.data[l * b.row_stride + j * b.col_stride];
          ab += term;
          mag += std::abs(term);
        }
        const double tol =
            static_cast<double>(k + 2) * eps * (std::abs(alpha) * mag + std::abs(c0(i, j)));
        ASSERT_NEAR(c(i, j), c0(i, j) + alpha * ab, tol)
            << "m " << m << " n " << n << " k " << k << " at (" << i << ", " << j << ")";
      }
    }
  }
};

TEST_P(GemmKernelTest, MatchesNaiveLoopAcrossTileAndPanelEdges) {
  // m and n straddle every tile (8×4, 8×6 and 16×12) and the 128-row A
  // block; k straddles the 256-deep panel pair.
  const std::size_t sides[] = {1, 5, 7, 9, 13, 15, 17, 23, 25, 130};
  const std::size_t depths[] = {1, 255, 256, 257, 300};
  for (const std::size_t m : sides) {
    for (const std::size_t n : sides) {
      for (const std::size_t k : depths) {
        Rng rng(m * 1000003 + n * 1009 + k);
        const Matrix a = Matrix::random(m, k, rng);
        const Matrix b = Matrix::random(k, n, rng);
        Matrix c = Matrix::random(m, n, rng);
        expect_matches_naive(m, n, k, -1.0, {a.data(), 1, m}, {b.data(), 1, k}, c);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(GemmKernelTest, TransposedAndStridedViews) {
  // A is the transpose of a block inside a larger matrix and B a block of a
  // taller one; C is a block of a larger matrix, whose border must not move.
  Rng rng(11);
  const std::size_t m = 13, n = 9, k = 257;
  const Matrix at = Matrix::random(k + 3, m + 2, rng);  // A = at(2:2+k, 1:1+m)^T
  const Matrix big_b = Matrix::random(k + 5, n + 4, rng);
  const Matrix c0 = Matrix::random(m + 4, n + 3, rng);
  Matrix c = c0;
  const BlockView a{at.col(1) + 2, at.rows(), 1};
  const BlockView b{big_b.col(3) + 4, 1, big_b.rows()};
  detail::gemm_update_with(GetParam(), m, n, k, 0.5, a, b, &c(3, 2), c.rows());
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t j = 0; j < c.cols(); ++j) {
    for (std::size_t i = 0; i < c.rows(); ++i) {
      if (i < 3 || i >= 3 + m || j < 2 || j >= 2 + n) {
        ASSERT_EQ(c(i, j), c0(i, j)) << "border moved at (" << i << ", " << j << ")";
        continue;
      }
      double ab = 0.0;
      double mag = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        ab += at(2 + l, 1 + i - 3) * big_b(4 + l, 3 + j - 2);
        mag += std::abs(at(2 + l, 1 + i - 3) * big_b(4 + l, 3 + j - 2));
      }
      const double tol = static_cast<double>(k + 2) * eps * (0.5 * mag + std::abs(c0(i, j)));
      ASSERT_NEAR(c(i, j), c0(i, j) + 0.5 * ab, tol) << "(" << i << ", " << j << ")";
    }
  }
}

TEST_P(GemmKernelTest, ZeroSizedShapesAndZeroAlphaLeaveCUntouched) {
  Rng rng(12);
  const Matrix a = Matrix::random(9, 7, rng);
  const Matrix b = Matrix::random(7, 5, rng);
  const Matrix c0 = Matrix::random(9, 5, rng);
  const std::size_t shapes[][3] = {{0, 5, 7}, {9, 0, 7}, {9, 5, 0}, {0, 0, 0}};
  for (const auto& [m, n, k] : shapes) {
    Matrix c = c0;
    detail::gemm_update_with(GetParam(), m, n, k, 1.0, {a.data(), 1, 9}, {b.data(), 1, 7},
                             c.data(), c.rows());
    EXPECT_EQ(max_abs_diff(c, c0), 0.0) << "m " << m << " n " << n << " k " << k;
  }
  Matrix c = c0;
  detail::gemm_update_with(GetParam(), 9, 5, 7, 0.0, {a.data(), 1, 9}, {b.data(), 1, 7},
                           c.data(), c.rows());
  EXPECT_EQ(max_abs_diff(c, c0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GemmKernelTest,
                         ::testing::Values(detail::GemmKernel::kPortable,
                                           detail::GemmKernel::kAvx2Fma,
                                           detail::GemmKernel::kAvx512),
                         [](const ::testing::TestParamInfo<detail::GemmKernel>& info) {
                           switch (info.param) {
                             case detail::GemmKernel::kAvx512:
                               return "Avx512";
                             case detail::GemmKernel::kAvx2Fma:
                               return "Avx2Fma";
                             default:
                               return "Portable";
                           }
                         });

TEST(BlasTest, FmaKernelsAgreeBitwise) {
  // Both FMA kernels sum each element of C in the same order and write it
  // back with one fused multiply-add, full and edge tiles alike, so on a host
  // with both their results match bit for bit.
  if (!detail::gemm_kernel_supported(detail::GemmKernel::kAvx512) ||
      !detail::gemm_kernel_supported(detail::GemmKernel::kAvx2Fma)) {
    GTEST_SKIP() << "this CPU lacks one of the kernels' instructions";
  }
  const std::size_t sides[] = {1, 7, 15, 16, 17, 25, 130};
  const std::size_t depths[] = {1, 257};
  for (const std::size_t m : sides) {
    for (const std::size_t n : sides) {
      for (const std::size_t k : depths) {
        Rng rng(m * 131 + n * 17 + k);
        const Matrix a = Matrix::random(m, k, rng);
        const Matrix b = Matrix::random(k, n, rng);
        Matrix c_avx2 = Matrix::random(m, n, rng);
        Matrix c_avx512 = c_avx2;
        detail::gemm_update_with(detail::GemmKernel::kAvx2Fma, m, n, k, 0.37, {a.data(), 1, m},
                                 {b.data(), 1, k}, c_avx2.data(), m);
        detail::gemm_update_with(detail::GemmKernel::kAvx512, m, n, k, 0.37, {a.data(), 1, m},
                                 {b.data(), 1, k}, c_avx512.data(), m);
        EXPECT_TRUE(same_bits(c_avx2.storage(), c_avx512.storage()))
            << "m " << m << " n " << n << " k " << k;
      }
    }
  }
}

TEST(BlasTest, GemmIsaNamesTheKernelGemmUpdateRuns) {
  const std::string isa = gemm_isa();
  if (detail::gemm_kernel_supported(detail::GemmKernel::kAvx512)) {
    EXPECT_EQ(isa, "avx512");
  } else if (detail::gemm_kernel_supported(detail::GemmKernel::kAvx2Fma)) {
    EXPECT_EQ(isa, "avx2+fma");
  } else {
    EXPECT_TRUE(isa == "sse2" || isa == "portable") << isa;
  }
}

// ---- LU ----

struct SolveCase {
  std::size_t n;
  std::uint64_t seed;
};

class LuPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(LuPropertyTest, SolvesRandomSystems) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector x_true = random_vector(n, rng);
  Vector b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);

  auto x = dgesv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-8 * static_cast<double>(n));
  EXPECT_LT(residual_inf(a, x.value(), b), 1e-8 * a.max_abs() * static_cast<double>(n));
}

// L (unit lower) times U, both unpacked from the packed L\U storage.
Matrix multiply_lu(const Matrix& packed) {
  const std::size_t n = packed.rows();
  Matrix l(n, n);
  Matrix u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i > j) {
        l(i, j) = packed(i, j);
      } else {
        u(i, j) = packed(i, j);
      }
    }
    l(j, j) = 1.0;
  }
  return matmul(l, u);
}

// P A: the recorded row swaps applied to A in order.
Matrix permute_rows(Matrix a, const std::vector<int>& pivots) {
  for (std::size_t k = 0; k < pivots.size(); ++k) {
    const auto p = static_cast<std::size_t>(pivots[k]);
    for (std::size_t j = 0; j < a.cols(); ++j) std::swap(a(k, j), a(p, j));
  }
  return a;
}

TEST_P(LuPropertyTest, FactorsGeneralMatrices) {
  // General (not diagonally dominant) matrices, so partial pivoting really
  // swaps rows, across every panel edge of the blocked factorization.
  const auto [n, seed] = GetParam();
  Rng rng(seed + 1000);
  const Matrix a = Matrix::random(n, n, rng);
  auto lu = LuFactorization::factor(a);
  ASSERT_TRUE(lu.ok());
  // ||PA - LU|| small relative to ||A||.
  Matrix diff = permute_rows(a, lu.value().pivots());
  axpy(-1.0, multiply_lu(lu.value().packed()).storage(), diff.storage());
  EXPECT_LT(diff.frobenius_norm(), 1e-14 * static_cast<double>(n) * a.frobenius_norm());

  const Vector x_true = random_vector(n, rng);
  Vector b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);
  auto x = lu.value().solve(b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(residual_inf(a, x.value(), b), 1e-12 * a.max_abs() * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuPropertyTest,
                         ::testing::Values(SolveCase{1, 10}, SolveCase{2, 11}, SolveCase{3, 12},
                                           SolveCase{5, 13}, SolveCase{8, 14}, SolveCase{16, 15},
                                           SolveCase{33, 16}, SolveCase{64, 17},
                                           SolveCase{100, 18}, SolveCase{150, 19},
                                           SolveCase{63, 90}, SolveCase{65, 91},
                                           SolveCase{127, 92}, SolveCase{129, 93},
                                           SolveCase{200, 94}, SolveCase{300, 95}));

// A graded matrix: row i scaled by 2^-(37 i mod 16), so partial pivoting
// picks rows far from the diagonal.
Matrix graded_matrix(std::size_t n, Rng& rng) {
  Matrix a = Matrix::random(n, n, rng);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      a(i, j) = std::ldexp(a(i, j), -static_cast<int>(i * 37 % 16));
    }
  }
  return a;
}

TEST(LuTest, PrePermutedInputFactorsBitIdentically) {
  // Every operation of the factorization is local to a row, so once A's rows
  // are in the order its own pivots chose, factoring again must swap nothing
  // and give the same bits. Swaps deferred to the wrong columns or applied
  // in the wrong order break that.
  for (const std::size_t n : {100, 512, 700}) {
    for (const bool graded : {false, true}) {
      Rng rng(n + (graded ? 1 : 0));
      const Matrix a = graded ? graded_matrix(n, rng) : Matrix::random(n, n, rng);
      auto lu = LuFactorization::factor(a);
      ASSERT_TRUE(lu.ok()) << "n " << n << " graded " << graded;
      std::size_t swaps = 0;
      for (std::size_t k = 0; k < n; ++k) swaps += lu.value().pivots()[k] != static_cast<int>(k);
      ASSERT_GT(swaps, n / 2) << "n " << n << " graded " << graded;

      auto again = LuFactorization::factor(permute_rows(a, lu.value().pivots()));
      ASSERT_TRUE(again.ok());
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(again.value().pivots()[k], static_cast<int>(k)) << "n " << n << " k " << k;
      }
      const Matrix& first = lu.value().packed();
      const Matrix& second = again.value().packed();
      EXPECT_EQ(std::memcmp(first.data(), second.data(), n * n * sizeof(double)), 0)
          << "n " << n << " graded " << graded;
    }
  }
}

TEST(LuTest, ResidualAcrossLeafAndPanelEdges) {
  // Orders on both sides of the 16-column leaf, the 64-column panel and the
  // kernels' row and column tiles, on pivoting and on non-pivoting systems.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (const std::size_t n : {63, 64, 65, 127, 128, 129, 511, 512, 513}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    for (const bool dominant : {false, true}) {
      Rng rng(n * 2 + (dominant ? 1 : 0));
      const Matrix a = dominant ? Matrix::random_diag_dominant(n, rng) : Matrix::random(n, n, rng);
      const Vector x_true = random_vector(n, rng);
      Vector b(n, 0.0);
      gemv(1.0, a, x_true, 0.0, b);
      auto x = dgesv(a, b);
      ASSERT_TRUE(x.ok()) << "n " << n << " dominant " << dominant;
      EXPECT_LT(residual_inf(a, x.value(), b), 1e-12 * a.max_abs() * static_cast<double>(n))
          << "n " << n << " dominant " << dominant;
    }
  }
}

TEST(LuTest, SingularMatrixRejected) {
  Matrix a(3, 3);  // all zeros
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
}

TEST(LuTest, RankDeficientRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;  // second row is 2x the first
  EXPECT_FALSE(LuFactorization::factor(a).ok());
}

TEST(LuTest, NonSquareRejected) {
  EXPECT_FALSE(LuFactorization::factor(Matrix(2, 3)).ok());
}

TEST(LuTest, RhsSizeMismatchRejected) {
  Rng rng(20);
  auto lu = LuFactorization::factor(Matrix::random_diag_dominant(4, rng));
  ASSERT_TRUE(lu.ok());
  EXPECT_FALSE(lu.value().solve(Vector(3)).ok());
}

TEST(LuTest, DeterminantOfKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 8;
  a(1, 0) = 4;
  a(1, 1) = 6;
  auto lu = LuFactorization::factor(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.value().determinant(), -14.0, 1e-10);
}

TEST(LuTest, DeterminantOfIdentityIsOne) {
  auto lu = LuFactorization::factor(Matrix::identity(5));
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.value().determinant(), 1.0, 1e-12);
}

TEST(LuTest, MultipleRhs) {
  Rng rng(21);
  const Matrix a = Matrix::random_diag_dominant(10, rng);
  const Matrix x_true = Matrix::random(10, 3, rng);
  const Matrix b = matmul(a, x_true);
  auto x = dgesv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-8);
}

TEST(LuTest, PivotingHandlesZeroLeadingEntry) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;  // permutation matrix: needs a pivot swap
  auto x = dgesv(a, Vector{2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 3.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 2.0, 1e-12);
}

TEST(LuTest, FlopsFormula) {
  EXPECT_NEAR(lu_flops(10), (2.0 / 3.0) * 1000 + 200, 1e-9);
  EXPECT_GT(lu_flops(100), lu_flops(99));
}

TEST(LuTest, RankDeficientBeyondFirstPanelRejected) {
  // Column 100 copies column 10: the dependency only shows after the first
  // 64-column panel has been factored and the trailing matrix updated.
  Rng rng(22);
  Matrix a = Matrix::random(200, 200, rng);
  std::copy(a.col(10), a.col(10) + 200, a.col(100));
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
}

TEST(LuTest, DeterminantSignOfLargePermutation) {
  constexpr std::size_t n = 130;
  Rng rng(23);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, perm[i]) = 1.0;
  // sign(perm) = (-1)^(n - number of cycles).
  std::vector<bool> seen(n, false);
  std::size_t cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i]) continue;
    ++cycles;
    for (std::size_t j = i; !seen[j]; j = perm[j]) seen[j] = true;
  }
  auto lu = LuFactorization::factor(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_EQ(lu.value().determinant(), (n - cycles) % 2 == 0 ? 1.0 : -1.0);
}

TEST(LuTest, NanInMatrixRejected) {
  Rng rng(24);
  Matrix a = Matrix::random(200, 200, rng);
  a(150, 37) = std::nan("");
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
  auto x = dgesv(a, random_vector(200, rng));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, ErrorCode::kExecutionFailed);
}

TEST(LuTest, InfInMatrixRejected) {
  Rng rng(25);
  Matrix a = Matrix::random(200, 200, rng);
  a(3, 120) = -std::numeric_limits<double>::infinity();
  auto lu = LuFactorization::factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.error().code, ErrorCode::kExecutionFailed);
  auto x = dgesv(a, random_vector(200, rng));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, ErrorCode::kExecutionFailed);
}

TEST(LuTest, NanInRhsRejected) {
  Rng rng(26);
  const Matrix a = Matrix::random_diag_dominant(100, rng);
  Vector b = random_vector(100, rng);
  b[42] = std::nan("");
  auto x = dgesv(a, b);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, ErrorCode::kExecutionFailed);
  // Caught on entry, before any factorization work.
  EXPECT_NE(x.error().message.find("right-hand side"), std::string::npos) << x.error().message;
}

// DESIGN §12: LU polls for cancellation and publishes progress once per
// pivot column, panels and trailing updates included.
TEST(LuTest, PreTrippedTokenCancels) {
  Rng rng(27);
  const Matrix a = Matrix::random(1024, 1024, rng);
  cancel::Token token;
  token.cancel();
  const cancel::ScopedToken bind(&token);
  auto x = dgesv(a, random_vector(1024, rng));
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, ErrorCode::kCancelled);
}

TEST(LuTest, CancelledMidFactorizationStopsEarly) {
  constexpr std::size_t n = 1024;
  Rng rng(28);
  const Matrix a = Matrix::random(n, n, rng);
  const Vector b = random_vector(n, rng);
  cancel::Token token;
  checkpoint::Token progress;
  std::atomic<bool> done{false};
  std::thread tripper([&] {
    while (!done.load() && progress.iteration() <= 64) std::this_thread::yield();
    token.cancel();
  });
  Result<Vector> x = make_error(ErrorCode::kInternal, "not run");
  {
    const cancel::ScopedToken bind_cancel(&token);
    const checkpoint::ScopedToken bind_progress(&progress);
    x = dgesv(a, b);
  }
  done.store(true);
  tripper.join();
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.error().code, ErrorCode::kCancelled);
  EXPECT_GT(progress.iteration(), 64u);
  EXPECT_LT(progress.iteration(), n);
}

// ---- Cholesky ----

class CholeskyPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(CholeskyPropertyTest, SolvesSpdSystems) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_spd(n, rng);
  const Vector x_true = random_vector(n, rng);
  Vector b(n, 0.0);
  gemv(1.0, a, x_true, 0.0, b);

  auto x = dposv(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyPropertyTest,
                         ::testing::Values(SolveCase{1, 30}, SolveCase{4, 31}, SolveCase{9, 32},
                                           SolveCase{16, 33}, SolveCase{40, 34},
                                           SolveCase{80, 35}, SolveCase{200, 38}));

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(36);
  const Matrix a = Matrix::random_spd(12, rng);
  auto chol = CholeskyFactorization::factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.value().lower();
  const Matrix rebuilt = matmul(l, l.transposed());
  EXPECT_LT(max_abs_diff(a, rebuilt), 1e-9 * a.max_abs());
}

TEST(CholeskyTest, BlockedFactorReconstructs) {
  // Past two 64-column blocks: the trailing updates write into the upper
  // triangle of each diagonal block, which must come back zeroed.
  Rng rng(39);
  const Matrix a = Matrix::random_spd(150, rng);
  auto chol = CholeskyFactorization::factor(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.value().lower();
  for (std::size_t j = 1; j < 150; ++j) {
    for (std::size_t i = 0; i < j; ++i) ASSERT_EQ(l(i, j), 0.0) << "(" << i << ", " << j << ")";
  }
  EXPECT_LT(max_abs_diff(a, matmul(l, l.transposed())), 1e-12 * a.max_abs());
}

TEST(CholeskyTest, IndefiniteRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  auto chol = CholeskyFactorization::factor(a);
  ASSERT_FALSE(chol.ok());
  EXPECT_EQ(chol.error().code, ErrorCode::kExecutionFailed);
}

TEST(CholeskyTest, AgreesWithLu) {
  Rng rng(37);
  const Matrix a = Matrix::random_spd(20, rng);
  const Vector b = random_vector(20, rng);
  auto x_chol = dposv(a, b);
  auto x_lu = dgesv(a, b);
  ASSERT_TRUE(x_chol.ok());
  ASSERT_TRUE(x_lu.ok());
  EXPECT_LT(max_abs_diff(x_chol.value(), x_lu.value()), 1e-8);
}

// ---- QR ----

class QrPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(QrPropertyTest, SquareSystemsMatchLu) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector b = random_vector(n, rng);
  auto x_qr = dgels(a, b);
  auto x_lu = dgesv(a, b);
  ASSERT_TRUE(x_qr.ok());
  ASSERT_TRUE(x_lu.ok());
  EXPECT_LT(max_abs_diff(x_qr.value(), x_lu.value()), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrPropertyTest,
                         ::testing::Values(SolveCase{2, 40}, SolveCase{5, 41}, SolveCase{10, 42},
                                           SolveCase{25, 43}, SolveCase{50, 44}));

TEST(QrTest, OverdeterminedLeastSquaresNormalEquations) {
  // x solves A^T A x = A^T b; verify via the normal-equation residual.
  Rng rng(45);
  const Matrix a = Matrix::random(30, 5, rng);
  const Vector b = random_vector(30, rng);
  auto x = dgels(a, b);
  ASSERT_TRUE(x.ok());
  // r = A x - b must be orthogonal to the column space: A^T r == 0.
  Vector r(b);
  gemv(1.0, a, x.value(), -1.0, r);
  Vector atr(5, 0.0);
  gemv_t(1.0, a, r, 0.0, atr);
  for (const double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(QrTest, ExactFitRecovered) {
  Rng rng(46);
  const Matrix a = Matrix::random(20, 4, rng);
  const Vector x_true = random_vector(4, rng);
  Vector b(20, 0.0);
  gemv(1.0, a, x_true, 0.0, b);
  auto x = dgels(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_true), 1e-9);
}

TEST(QrTest, UnderdeterminedRejected) {
  EXPECT_FALSE(QrFactorization::factor(Matrix(3, 5)).ok());
}

TEST(QrTest, RankDeficientRejected) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  EXPECT_FALSE(QrFactorization::factor(a).ok());
}

TEST(QrTest, RDiagonalNonZero) {
  Rng rng(47);
  auto qr = QrFactorization::factor(Matrix::random(10, 6, rng));
  ASSERT_TRUE(qr.ok());
  const Matrix r = qr.value().r();
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NE(r(i, i), 0.0);
  // Strictly upper triangular below the diagonal.
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = j + 1; i < 6; ++i) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(QrTest, QtPreservesNorm) {
  Rng rng(48);
  const Matrix a = Matrix::random(12, 5, rng);
  auto qr = QrFactorization::factor(a);
  ASSERT_TRUE(qr.ok());
  const Vector b = random_vector(12, rng);
  auto y = qr.value().apply_qt(b);
  ASSERT_TRUE(y.ok());
  EXPECT_NEAR(nrm2(y.value()), nrm2(b), 1e-9) << "Q^T is orthogonal";
}

// ---- eigensolvers ----

TEST(EigenTest, DiagonalMatrixEigenvalues) {
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 1;
  a(2, 2) = 2;
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  ASSERT_EQ(eig.value().values.size(), 3u);
  EXPECT_NEAR(eig.value().values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.value().values[1], 2.0, 1e-10);
  EXPECT_NEAR(eig.value().values[2], 3.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;  // eigenvalues 1 and 3
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.value().values[1], 3.0, 1e-10);
}

class EigenPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(EigenPropertyTest, ResidualAndOrthogonality) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = Matrix::random_spd(n, rng);
  auto eig = jacobi_eigen(a);
  ASSERT_TRUE(eig.ok());
  const auto& [values, vectors] = eig.value();

  const double scale = a.max_abs();
  for (std::size_t j = 0; j < n; ++j) {
    // A v = lambda v
    Vector v(vectors.col(j), vectors.col(j) + n);
    Vector av(n, 0.0);
    gemv(1.0, a, v, 0.0, av);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], values[j] * v[i], 1e-7 * scale) << "pair " << j;
    }
    // SPD: all eigenvalues positive.
    EXPECT_GT(values[j], 0.0);
    // Ascending order.
    if (j > 0) {
      EXPECT_LE(values[j - 1], values[j] + 1e-12);
    }
  }
  // Trace equals eigenvalue sum.
  double trace = 0, sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-7 * scale * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(SolveCase{2, 50}, SolveCase{5, 51}, SolveCase{10, 52},
                                           SolveCase{20, 53}, SolveCase{40, 54}));

TEST(EigenTest, AsymmetricRejected) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;  // a(1,0) stays 0
  EXPECT_FALSE(jacobi_eigen(a).ok());
}

TEST(EigenTest, PowerIterationFindsDominantPair) {
  Rng rng(55);
  const Matrix a = Matrix::random_spd(15, rng);
  auto full = jacobi_eigen(a);
  ASSERT_TRUE(full.ok());
  const double lambda_max = full.value().values.back();

  Rng rng2(56);
  auto pi = power_iteration(a, rng2);
  ASSERT_TRUE(pi.ok());
  EXPECT_TRUE(pi.value().converged);
  EXPECT_NEAR(pi.value().eigenvalue, lambda_max, 1e-6 * lambda_max);
}

// ---- tridiagonal ----

TEST(TridiagTest, KnownSystem) {
  // 2x2: [2 1; 1 2] x = [3; 3] -> x = [1; 1]
  auto x = solve_tridiagonal(Vector{1}, Vector{2, 2}, Vector{1}, Vector{3, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 1.0, 1e-12);
}

TEST(TridiagTest, SingleUnknown) {
  auto x = solve_tridiagonal({}, Vector{4}, {}, Vector{8});
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(x.value()[0], 2.0);
}

class TridiagPropertyTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(TridiagPropertyTest, MatchesDenseSolve) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  Vector sub(n - 1), diag(n), super(n - 1), rhs(n);
  for (std::size_t i = 0; i < n - 1; ++i) {
    sub[i] = rng.uniform(-1, 1);
    super[i] = rng.uniform(-1, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = 4.0 + rng.uniform(0, 1);  // diagonally dominant
    rhs[i] = rng.uniform(-10, 10);
  }
  auto x = solve_tridiagonal(sub, diag, super, rhs);
  ASSERT_TRUE(x.ok());

  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = diag[i];
    if (i > 0) a(i, i - 1) = sub[i - 1];
    if (i + 1 < n) a(i, i + 1) = super[i];
  }
  auto x_dense = dgesv(a, rhs);
  ASSERT_TRUE(x_dense.ok());
  EXPECT_LT(max_abs_diff(x.value(), x_dense.value()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagPropertyTest,
                         ::testing::Values(SolveCase{2, 60}, SolveCase{5, 61}, SolveCase{20, 62},
                                           SolveCase{100, 63}, SolveCase{500, 64}));

TEST(TridiagTest, SizeMismatchRejected) {
  EXPECT_FALSE(solve_tridiagonal(Vector{1, 2}, Vector{1, 2}, Vector{1}, Vector{1, 2}).ok());
  EXPECT_FALSE(solve_tridiagonal({}, {}, {}, {}).ok());
}

TEST(TridiagTest, ZeroPivotRejected) {
  EXPECT_FALSE(solve_tridiagonal(Vector{1}, Vector{0, 1}, Vector{1}, Vector{1, 1}).ok());
}

// ---- rating ----

TEST(RatingTest, ProducesPositiveRate) {
  const Rating r = linpack_rating(/*n=*/100, /*repeats=*/1);
  EXPECT_GT(r.mflops, 0.0);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.order, 100u);
}

TEST(RatingTest, DeterministicMatrixSolvable) {
  // Two ratings on the same host should land within an order of magnitude
  // (the kernel is deterministic; scheduling noise is bounded by best-of).
  const Rating a = linpack_rating(80, 2);
  const Rating b = linpack_rating(80, 2);
  EXPECT_LT(a.mflops / b.mflops, 10.0);
  EXPECT_GT(a.mflops / b.mflops, 0.1);
}

}  // namespace
}  // namespace ns::linalg

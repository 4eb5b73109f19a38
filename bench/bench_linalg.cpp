// E8 (micro): substrate kernel rates via google-benchmark.
//
// Confirms the numerical substrate behaves like its LAPACK/BLAS/ITPACK
// archetypes: dgemm/LU/Cholesky scale as O(N^3) with sane constant factors,
// gemv as O(N^2), CG per-iteration as O(nnz), and serialization moves
// GB/s-class data. These rates feed the discussion of the predictor's
// complexity models in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dsl/value.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse.hpp"
#include "proto/messages.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"

namespace {

using namespace ns;
using namespace ns::linalg;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(gemm_isa());
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Each micro-kernel on the same C += A B, so one binary on one host gives
// the ratios between them. Arg 0 picks the kernel (0 portable, 1 AVX2+FMA,
// 2 AVX-512).
void BM_GemmKernel(benchmark::State& state) {
  const auto kernel = static_cast<detail::GemmKernel>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  static constexpr const char* kLabels[] = {"portable", "avx2+fma", "avx512"};
  state.SetLabel(kLabels[state.range(0)]);
  if (!detail::gemm_kernel_supported(kernel)) {
    state.SkipWithError("CPU lacks this kernel's instructions");
    return;
  }
  Rng rng(1);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    detail::gemm_update_with(kernel, n, n, n, 1.0, {a.data(), 1, n}, {b.data(), 1, n}, c.data(),
                             n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->ArgsProduct({{0, 1, 2}, {512}});

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::random(n, n, rng);
  const Vector x = random_vector(n, rng);
  Vector y(n);
  for (auto _ : state) {
    gemv(1.0, a, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix a = Matrix::random_diag_dominant(n, rng);
  const Vector b = random_vector(n, rng);
  for (auto _ : state) {
    auto x = dgesv(a, b);
    benchmark::DoNotOptimize(x);
  }
  state.counters["Mflops"] = benchmark::Counter(
      lu_flops(n) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(gemm_isa());
}
BENCHMARK(BM_LuSolve)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// BM_LuSolve's diagonally dominant systems never pivot, and neither do the
// rating's or perfbench's. A general random matrix swaps a row at nearly
// every step, so this is the row that times the row interchanges.
void BM_LuSolvePivot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix a = Matrix::random(n, n, rng);
  const Vector b = random_vector(n, rng);
  for (auto _ : state) {
    auto x = dgesv(a, b);
    benchmark::DoNotOptimize(x);
  }
  state.counters["Mflops"] = benchmark::Counter(
      lu_flops(n) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(gemm_isa());
}
BENCHMARK(BM_LuSolvePivot)->Arg(512)->Arg(1024);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Matrix a = Matrix::random_spd(n, rng);
  const Vector b = random_vector(n, rng);
  for (auto _ : state) {
    auto x = dposv(a, b);
    benchmark::DoNotOptimize(x);
  }
  state.SetLabel(gemm_isa());
}
BENCHMARK(BM_CholeskySolve)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_QrLeastSquares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::random(2 * n, n, rng);
  const Vector b = random_vector(2 * n, rng);
  for (auto _ : state) {
    auto x = dgels(a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(32)->Arg(64)->Arg(128);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Matrix a = Matrix::random_spd(n, rng);
  for (auto _ : state) {
    auto eig = jacobi_eigen(a);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseMatvec(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = poisson_2d(grid, grid);
  Vector x(grid * grid, 1.0);
  Vector y;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["Mflops"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) / 1e6 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseMatvec)->Arg(32)->Arg(64)->Arg(128);

void BM_ConjugateGradient(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const CsrMatrix a = poisson_2d(grid, grid);
  const Vector b(grid * grid, 1.0);
  IterativeOptions opts;
  opts.tolerance = 1e-8;
  for (auto _ : state) {
    auto res = conjugate_gradient(a, b, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(16)->Arg(32)->Arg(64);

void BM_MarshalMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const dsl::DataObject obj(Matrix::random(n, n, rng));
  for (auto _ : state) {
    serial::Encoder enc;
    obj.encode(enc);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obj.byte_size()));
}
BENCHMARK(BM_MarshalMatrix)->Arg(64)->Arg(256)->Arg(512);

void BM_UnmarshalMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const dsl::DataObject obj(Matrix::random(n, n, rng));
  serial::Encoder enc;
  obj.encode(enc);
  const auto bytes = enc.take();
  for (auto _ : state) {
    serial::Decoder dec(bytes);
    auto back = dsl::DataObject::decode(dec);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_UnmarshalMatrix)->Arg(64)->Arg(256)->Arg(512);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536)->Arg(4194304);

/// A daxpy request the shape of the bulk_vectors workload: alpha plus two
/// n-vectors.
proto::SolveRequest daxpy_request(std::size_t n) {
  Rng rng(10);
  proto::SolveRequest request;
  request.request_id = 1;
  request.problem = "daxpy";
  request.args = {dsl::DataObject(2.5), dsl::DataObject(random_vector(n, rng)),
                  dsl::DataObject(random_vector(n, rng))};
  return request;
}

void BM_EncodeSolveRequest(benchmark::State& state) {
  const proto::SolveRequest request = daxpy_request(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    serial::Encoder enc;
    request.encode(enc);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeSolveRequest)->Arg(1 << 18);

void BM_DecodeSolveRequest(benchmark::State& state) {
  serial::Encoder enc;
  daxpy_request(static_cast<std::size_t>(state.range(0))).encode(enc);
  const serial::Bytes bytes = enc.take();
  for (auto _ : state) {
    serial::Decoder dec(bytes);
    auto back = proto::SolveRequest::decode(dec);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeSolveRequest)->Arg(1 << 18);

/// What a send costs in user space before the socket: the gathered encode
/// (the bulk arrays are borrowed, not copied) and the frame CRC folded over
/// every piece. Bytes processed are the payload's.
void BM_FrameSolveRequest(benchmark::State& state) {
  const proto::SolveRequest request = daxpy_request(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  std::uint8_t header[serial::kHeaderSize];
  for (auto _ : state) {
    serial::Encoder enc = serial::Encoder::gathering();
    request.encode(enc);
    const serial::Payload payload = enc.take_payload();
    serial::encode_frame_header(static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                payload, header);
    bytes = payload.size();
    benchmark::DoNotOptimize(header);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameSolveRequest)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();

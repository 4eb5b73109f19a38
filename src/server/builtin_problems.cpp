#include "server/builtin_problems.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "dsl/specfile.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "linalg/expm.hpp"
#include "linalg/fft.hpp"
#include "linalg/fit.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/quad.hpp"
#include "linalg/svd.hpp"
#include "linalg/tridiag.hpp"

namespace ns::server {

using dsl::ArgSpec;
using dsl::ComplexityModel;
using dsl::DataObject;
using dsl::DataType;
using dsl::make_args;
using dsl::ProblemSpec;

namespace {

using Args = std::vector<DataObject>;

ProblemSpec spec(std::string name, std::string description, std::vector<ArgSpec> inputs,
                 std::vector<ArgSpec> outputs, double a, double b, std::uint32_t size_arg = 0) {
  ProblemSpec s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.inputs = std::move(inputs);
  s.outputs = std::move(outputs);
  s.complexity = ComplexityModel{a, b};
  s.size_arg = size_arg;
  return s;
}

}  // namespace

void register_builtin_problems(dsl::ProblemRegistry& registry, double native_mflops) {
  // ---- BLAS ----
  registry.add(
      spec("ddot", "Dot product of two vectors", {{"x", DataType::kVector}, {"y", DataType::kVector}},
           {{"r", DataType::kDouble}}, 2.0, 1.0),
      [](const Args& args) -> Result<Args> {
        const auto& x = args[0].as_vector();
        const auto& y = args[1].as_vector();
        if (x.size() != y.size()) {
          return make_error(ErrorCode::kBadArguments, "ddot: length mismatch");
        }
        return make_args(linalg::dot(x, y));
      });

  registry.add(
      spec("daxpy", "y += alpha * x",
           {{"alpha", DataType::kDouble}, {"x", DataType::kVector}, {"y", DataType::kVector}},
           {{"y_out", DataType::kVector}}, 2.0, 1.0, /*size_arg=*/1),
      [](const Args& args) -> Result<Args> {
        const auto& x = args[1].as_vector();
        linalg::Vector y = args[2].as_vector();
        if (x.size() != y.size()) {
          return make_error(ErrorCode::kBadArguments, "daxpy: length mismatch");
        }
        linalg::axpy(args[0].as_double(), x, y);
        return make_args(std::move(y));
      });

  registry.add(
      spec("dgemv", "Dense matrix-vector product y = A x",
           {{"A", DataType::kMatrix}, {"x", DataType::kVector}}, {{"y", DataType::kVector}}, 2.0,
           2.0),
      [](const Args& args) -> Result<Args> {
        const auto& a = args[0].as_matrix();
        const auto& x = args[1].as_vector();
        if (x.size() != a.cols()) {
          return make_error(ErrorCode::kBadArguments, "dgemv: dimension mismatch");
        }
        linalg::Vector y(a.rows(), 0.0);
        linalg::gemv(1.0, a, x, 0.0, y);
        return make_args(std::move(y));
      });

  registry.add(
      spec("dgemm", "Dense matrix-matrix product C = A B",
           {{"A", DataType::kMatrix}, {"B", DataType::kMatrix}}, {{"C", DataType::kMatrix}}, 2.0,
           3.0),
      [](const Args& args) -> Result<Args> {
        const auto& a = args[0].as_matrix();
        const auto& b = args[1].as_matrix();
        if (a.cols() != b.rows()) {
          return make_error(ErrorCode::kBadArguments, "dgemm: dimension mismatch");
        }
        return make_args(linalg::matmul(a, b));
      });

  // ---- LAPACK-style dense solvers ----
  registry.add(
      spec("dgesv", "Solve a dense linear system A x = b (LU with partial pivoting)",
           {{"A", DataType::kMatrix}, {"b", DataType::kVector}}, {{"x", DataType::kVector}},
           2.0 / 3.0, 3.0),
      [](const Args& args) -> Result<Args> {
        const auto& a = args[0].as_matrix();
        const auto& b = args[1].as_vector();
        if (!a.square() || b.size() != a.rows()) {
          return make_error(ErrorCode::kBadArguments, "dgesv: dimension mismatch");
        }
        auto x = linalg::dgesv(a, b);
        if (!x.ok()) return x.error();
        return make_args(std::move(x).value());
      });

  registry.add(
      spec("dposv", "Solve an SPD system A x = b (Cholesky)",
           {{"A", DataType::kMatrix}, {"b", DataType::kVector}}, {{"x", DataType::kVector}},
           1.0 / 3.0, 3.0),
      [](const Args& args) -> Result<Args> {
        const auto& a = args[0].as_matrix();
        const auto& b = args[1].as_vector();
        if (!a.square() || b.size() != a.rows()) {
          return make_error(ErrorCode::kBadArguments, "dposv: dimension mismatch");
        }
        auto x = linalg::dposv(a, b);
        if (!x.ok()) return x.error();
        return make_args(std::move(x).value());
      });

  registry.add(
      spec("dgels", "Least-squares solve min ||A x - b|| (Householder QR)",
           {{"A", DataType::kMatrix}, {"b", DataType::kVector}}, {{"x", DataType::kVector}}, 2.0,
           3.0),
      [](const Args& args) -> Result<Args> {
        const auto& a = args[0].as_matrix();
        const auto& b = args[1].as_vector();
        if (b.size() != a.rows()) {
          return make_error(ErrorCode::kBadArguments, "dgels: dimension mismatch");
        }
        auto x = linalg::dgels(a, b);
        if (!x.ok()) return x.error();
        return make_args(std::move(x).value());
      });

  registry.add(
      spec("eig_sym", "All eigenvalues of a symmetric matrix (cyclic Jacobi)",
           {{"A", DataType::kMatrix}}, {{"values", DataType::kVector}}, 6.0, 3.0),
      [](const Args& args) -> Result<Args> {
        auto eig = linalg::jacobi_eigen(args[0].as_matrix());
        if (!eig.ok()) return eig.error();
        return make_args(std::move(eig.value().values));
      });

  registry.add(
      spec("eig_power", "Dominant eigenvalue of a square matrix (power iteration)",
           {{"A", DataType::kMatrix}}, {{"lambda", DataType::kDouble}, {"v", DataType::kVector}},
           4.0, 2.0),
      [](const Args& args) -> Result<Args> {
        Rng rng(0x5eed);  // deterministic start vector: same answer every run
        auto res = linalg::power_iteration(args[0].as_matrix(), rng);
        if (!res.ok()) return res.error();
        return make_args(res.value().eigenvalue, std::move(res.value().eigenvector));
      });

  registry.add(
      spec("tridiag", "Solve a tridiagonal system (Thomas algorithm)",
           {{"sub", DataType::kVector},
            {"diag", DataType::kVector},
            {"super", DataType::kVector},
            {"rhs", DataType::kVector}},
           {{"x", DataType::kVector}}, 8.0, 1.0, /*size_arg=*/1),
      [](const Args& args) -> Result<Args> {
        auto x = linalg::solve_tridiagonal(args[0].as_vector(), args[1].as_vector(),
                                           args[2].as_vector(), args[3].as_vector());
        if (!x.ok()) return x.error();
        return make_args(std::move(x).value());
      });

  // ---- ITPACK-style iterative solvers ----
  registry.add(
      // Planning model: CG on grid-like SPD systems needs ~sqrt(N) sweeps of
      // ~O(N) work each, hence a * N^1.5.
      spec("cg", "Conjugate-gradient solve of a sparse SPD system",
           {{"A", DataType::kSparse}, {"b", DataType::kVector}},
           {{"x", DataType::kVector}, {"iterations", DataType::kInt}}, 60.0, 1.5),
      [](const Args& args) -> Result<Args> {
        auto res = linalg::conjugate_gradient(args[0].as_sparse(), args[1].as_vector());
        if (!res.ok()) return res.error();
        if (!res.value().converged) {
          return make_error(ErrorCode::kExecutionFailed, "cg did not converge");
        }
        return make_args(std::move(res.value().x),
                         static_cast<std::int64_t>(res.value().iterations));
      });

  registry.add(
      spec("jacobi_it", "Jacobi iterative solve of a sparse system",
           {{"A", DataType::kSparse}, {"b", DataType::kVector}},
           {{"x", DataType::kVector}, {"iterations", DataType::kInt}}, 40.0, 2.0),
      [](const Args& args) -> Result<Args> {
        linalg::IterativeOptions opts;
        opts.tolerance = 1e-8;
        auto res = linalg::jacobi_solve(args[0].as_sparse(), args[1].as_vector(), opts);
        if (!res.ok()) return res.error();
        if (!res.value().converged) {
          return make_error(ErrorCode::kExecutionFailed, "jacobi did not converge");
        }
        return make_args(std::move(res.value().x),
                         static_cast<std::int64_t>(res.value().iterations));
      });

  registry.add(
      spec("sor", "SOR iterative solve of a sparse system",
           {{"A", DataType::kSparse}, {"b", DataType::kVector}, {"omega", DataType::kDouble}},
           {{"x", DataType::kVector}, {"iterations", DataType::kInt}}, 30.0, 2.0),
      [](const Args& args) -> Result<Args> {
        linalg::IterativeOptions opts;
        opts.tolerance = 1e-8;
        opts.omega = args[2].as_double();
        auto res = linalg::sor_solve(args[0].as_sparse(), args[1].as_vector(), opts);
        if (!res.ok()) return res.error();
        if (!res.value().converged) {
          return make_error(ErrorCode::kExecutionFailed, "sor did not converge");
        }
        return make_args(std::move(res.value().x),
                         static_cast<std::int64_t>(res.value().iterations));
      });

  // ---- FitPack-style fitting ----
  registry.add(
      spec("polyfit", "Least-squares polynomial fit",
           {{"x", DataType::kVector}, {"y", DataType::kVector}, {"degree", DataType::kInt}},
           {{"coeffs", DataType::kVector}}, 50.0, 1.0),
      [](const Args& args) -> Result<Args> {
        const std::int64_t degree = args[2].as_int();
        if (degree < 0 || degree > 64) {
          return make_error(ErrorCode::kBadArguments, "polyfit: degree out of range");
        }
        auto coeffs = linalg::polyfit(args[0].as_vector(), args[1].as_vector(),
                                      static_cast<std::size_t>(degree));
        if (!coeffs.ok()) return coeffs.error();
        return make_args(std::move(coeffs).value());
      });

  registry.add(
      spec("spline_eval", "Natural cubic spline interpolation at query points",
           {{"x", DataType::kVector}, {"y", DataType::kVector}, {"t", DataType::kVector}},
           {{"values", DataType::kVector}}, 20.0, 1.0),
      [](const Args& args) -> Result<Args> {
        auto sp = linalg::CubicSpline::fit(args[0].as_vector(), args[1].as_vector());
        if (!sp.ok()) return sp.error();
        const auto& t = args[2].as_vector();
        linalg::Vector values(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) values[i] = sp.value()(t[i]);
        return make_args(std::move(values));
      });

  registry.add(
      spec("dsort", "Sort a vector ascending", {{"x", DataType::kVector}},
           {{"sorted", DataType::kVector}}, 3.0, 1.1),
      [](const Args& args) -> Result<Args> {
        linalg::Vector v = args[0].as_vector();
        std::sort(v.begin(), v.end());
        return make_args(std::move(v));
      });

  // ---- FFT / signal processing ----
  registry.add(
      spec("fft", "Complex FFT (radix-2); length must be a power of two",
           {{"re", DataType::kVector}, {"im", DataType::kVector}},
           {{"re_out", DataType::kVector}, {"im_out", DataType::kVector}}, 5.0, 1.17),
      [](const Args& args) -> Result<Args> {
        auto out = linalg::fft(args[0].as_vector(), args[1].as_vector());
        if (!out.ok()) return out.error();
        return make_args(std::move(out.value().first), std::move(out.value().second));
      });

  registry.add(
      spec("ifft", "Inverse complex FFT (radix-2)",
           {{"re", DataType::kVector}, {"im", DataType::kVector}},
           {{"re_out", DataType::kVector}, {"im_out", DataType::kVector}}, 5.0, 1.17),
      [](const Args& args) -> Result<Args> {
        auto out = linalg::ifft(args[0].as_vector(), args[1].as_vector());
        if (!out.ok()) return out.error();
        return make_args(std::move(out.value().first), std::move(out.value().second));
      });

  registry.add(
      spec("convolve", "Linear convolution of two real signals (FFT-based)",
           {{"x", DataType::kVector}, {"y", DataType::kVector}},
           {{"z", DataType::kVector}}, 15.0, 1.17),
      [](const Args& args) -> Result<Args> {
        auto out = linalg::convolve(args[0].as_vector(), args[1].as_vector());
        if (!out.ok()) return out.error();
        return make_args(std::move(out).value());
      });

  // ---- SVD / analysis ----
  registry.add(
      spec("svd_vals", "Singular values of a dense matrix (one-sided Jacobi)",
           {{"A", DataType::kMatrix}}, {{"sigma", DataType::kVector}}, 8.0, 3.0),
      [](const Args& args) -> Result<Args> {
        auto sv = linalg::singular_values(args[0].as_matrix());
        if (!sv.ok()) return sv.error();
        return make_args(std::move(sv).value());
      });

  registry.add(
      spec("cond", "2-norm condition number estimate of a dense matrix",
           {{"A", DataType::kMatrix}}, {{"kappa", DataType::kDouble}}, 8.0, 3.0),
      [](const Args& args) -> Result<Args> {
        auto kappa = linalg::condition_number(args[0].as_matrix());
        if (!kappa.ok()) return kappa.error();
        return make_args(kappa.value());
      });

  registry.add(
      spec("expm", "Matrix exponential e^A (scaling-and-squaring Pade)",
           {{"A", DataType::kMatrix}}, {{"E", DataType::kMatrix}}, 20.0, 3.0),
      [](const Args& args) -> Result<Args> {
        auto e = linalg::expm(args[0].as_matrix());
        if (!e.ok()) return e.error();
        return make_args(std::move(e).value());
      });

  // ---- quadrature / ODE ----
  registry.add(
      spec("quad_spline", "Integral of tabulated samples via natural cubic spline",
           {{"x", DataType::kVector}, {"y", DataType::kVector}},
           {{"integral", DataType::kDouble}}, 30.0, 1.0),
      [](const Args& args) -> Result<Args> {
        auto integral = linalg::integrate_samples(args[0].as_vector(), args[1].as_vector());
        if (!integral.ok()) return integral.error();
        return make_args(integral.value());
      });

  registry.add(
      spec("lorenz", "Lorenz attractor trajectory via RK4",
           {{"sigma", DataType::kDouble},
            {"rho", DataType::kDouble},
            {"beta", DataType::kDouble},
            {"y0", DataType::kVector},
            {"dt", DataType::kDouble},
            {"steps", DataType::kInt},
            {"stride", DataType::kInt}},
           {{"trajectory", DataType::kVector}}, 100.0, 1.0, /*size_arg=*/5),
      [](const Args& args) -> Result<Args> {
        const auto& y0 = args[3].as_vector();
        if (y0.size() != 3) {
          return make_error(ErrorCode::kBadArguments, "lorenz: y0 must have 3 components");
        }
        const std::int64_t steps = args[5].as_int();
        const std::int64_t stride = args[6].as_int();
        if (steps <= 0 || steps > 10000000 || stride <= 0) {
          return make_error(ErrorCode::kBadArguments, "lorenz: bad steps/stride");
        }
        auto traj = linalg::lorenz_trajectory(
            args[0].as_double(), args[1].as_double(), args[2].as_double(), y0[0], y0[1],
            y0[2], args[4].as_double(), static_cast<std::size_t>(steps),
            static_cast<std::size_t>(stride));
        if (!traj.ok()) return traj.error();
        return make_args(std::move(traj).value());
      });

  // ---- Synthetic workloads ----
  registry.add(
      spec("mandelbrot", "Escape-time counts on a square window of the Mandelbrot set",
           {{"center_re", DataType::kDouble},
            {"center_im", DataType::kDouble},
            {"scale", DataType::kDouble},
            {"resolution", DataType::kInt},
            {"max_iter", DataType::kInt}},
           {{"counts", DataType::kVector}}, 400.0, 2.0, /*size_arg=*/3),
      [](const Args& args) -> Result<Args> {
        const std::int64_t res = args[3].as_int();
        const std::int64_t max_iter = args[4].as_int();
        if (res <= 0 || res > 8192 || max_iter <= 0) {
          return make_error(ErrorCode::kBadArguments, "mandelbrot: bad resolution/max_iter");
        }
        const double cr = args[0].as_double();
        const double ci = args[1].as_double();
        const double scale = args[2].as_double();
        const auto n = static_cast<std::size_t>(res);
        linalg::Vector counts(n * n);
        for (std::size_t py = 0; py < n; ++py) {
          for (std::size_t px = 0; px < n; ++px) {
            const double x0 = cr + scale * (2.0 * static_cast<double>(px) / static_cast<double>(n) - 1.0);
            const double y0 = ci + scale * (2.0 * static_cast<double>(py) / static_cast<double>(n) - 1.0);
            double x = 0, y = 0;
            std::int64_t it = 0;
            while (x * x + y * y <= 4.0 && it < max_iter) {
              const double xt = x * x - y * y + x0;
              y = 2 * x * y + y0;
              x = xt;
              ++it;
            }
            counts[py * n + px] = static_cast<double>(it);
          }
        }
        return make_args(std::move(counts));
      });

  // busywork(N): N Mflop of machine-independent synthetic compute,
  // calibrated against the host's native rate so its wall time matches a
  // real N-Mflop dense kernel. The scheduling experiments lean on this:
  // its cost is predictable and exactly proportional to N.
  registry.add(
      spec("busywork", "Synthetic compute: N Mflop of calibrated busy work",
           {{"mflop", DataType::kInt}}, {{"done", DataType::kInt}}, 1e6, 1.0),
      [native_mflops](const Args& args) -> Result<Args> {
        const std::int64_t mflop = args[0].as_int();
        if (mflop < 0 || mflop > 1000000) {
          return make_error(ErrorCode::kBadArguments, "busywork: mflop out of range");
        }
        const double rate = native_mflops > 0 ? native_mflops : 100.0;
        const auto total = static_cast<std::uint64_t>(mflop);
        // Durable jobs snapshot their position as whole Mflop completed; the
        // iteration counter doubles as the unit of progress, so a resumed job
        // repeats at most the checkpoint interval's worth of spinning.
        std::uint64_t done = checkpoint::restore([&](serial::Decoder& dec) {
          auto t = dec.get_u64();
          return t.ok() && t.value() == total;
        });
        auto& work_done = metrics::counter("server.work_mflop_total");
        // Spin in slices with cancellation checkpoints between them, so a
        // cancelled request releases its worker slot mid-spin.
        while (done < total) {
          if (cancel::poll()) return cancel::cancelled_error("busywork");
          const double want_s = std::min(static_cast<double>(total - done) / rate, 0.01);
          const double spent_s = busy_spin_seconds(want_s);
          const auto step = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(spent_s * rate + 0.5));
          const std::uint64_t add = std::min(step, total - done);
          done += add;
          work_done.inc(add);
          const double frac = total > 0 ? static_cast<double>(total - done) /
                                              static_cast<double>(total)
                                        : 0.0;
          checkpoint::tick(done, frac, [&](serial::Encoder& enc) { enc.put_u64(total); });
        }
        return make_args(mflop);
      });

  // simwork(N): like busywork but sleeps instead of spinning. Used by the
  // multi-machine scheduling experiments: on a one-host deployment a
  // *sleeping* server correctly emulates work done on an independent remote
  // processor (it occupies that server's capacity without contending for
  // the host CPU), whereas busywork models compute sharing the local CPU.
  registry.add(
      spec("simwork", "Synthetic compute: N Mflop of simulated (sleeping) work",
           {{"mflop", DataType::kInt}}, {{"done", DataType::kInt}}, 1e6, 1.0),
      [native_mflops](const Args& args) -> Result<Args> {
        const std::int64_t mflop = args[0].as_int();
        if (mflop < 0 || mflop > 1000000) {
          return make_error(ErrorCode::kBadArguments, "simwork: mflop out of range");
        }
        const double rate = native_mflops > 0 ? native_mflops : 100.0;
        const auto total = static_cast<std::uint64_t>(mflop);
        // Sliced like busywork so the job is checkpointable: position is
        // whole Mflop completed, and a restart resumes sleeping from the
        // last snapshot instead of the beginning. Cancellation checkpoints
        // between slices keep the chaos/drain tests prompt.
        std::uint64_t done = checkpoint::restore([&](serial::Decoder& dec) {
          auto t = dec.get_u64();
          return t.ok() && t.value() == total;
        });
        auto& work_done = metrics::counter("server.work_mflop_total");
        while (done < total) {
          if (cancel::poll()) return cancel::cancelled_error("simwork");
          const double slice_s = std::min(static_cast<double>(total - done) / rate, 0.01);
          sleep_seconds(slice_s);
          const auto step = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(slice_s * rate + 0.5));
          const std::uint64_t add = std::min(step, total - done);
          done += add;
          work_done.inc(add);
          const double frac = total > 0 ? static_cast<double>(total - done) /
                                              static_cast<double>(total)
                                        : 0.0;
          checkpoint::tick(done, frac, [&](serial::Encoder& enc) { enc.put_u64(total); });
        }
        return make_args(mflop);
      });

  // simstate(mflop, state_kb): simwork carrying a realistically-sized solver
  // state. A state_kb-kilobyte vector of doubles drifts slowly (a handful of
  // entries move per slice, the way an iterative solution vector converges)
  // and every checkpoint snapshots the whole vector. The replication bench
  // (bench_fault E4g) leans on this: consecutive snapshots differ in a few
  // entries, so delta/RLE frames (common/bytepack.hpp) beat raw copies by a
  // wide margin — which simwork's ~13-byte snapshots are too small to show.
  registry.add(
      spec("simstate", "Synthetic compute: N Mflop of simulated work, K KB of checkpoint state",
           {{"mflop", DataType::kInt}, {"state_kb", DataType::kInt}},
           {{"done", DataType::kInt}}, 1e6, 1.0),
      [native_mflops](const Args& args) -> Result<Args> {
        const std::int64_t mflop = args[0].as_int();
        const std::int64_t state_kb = args[1].as_int();
        if (mflop < 0 || mflop > 1000000) {
          return make_error(ErrorCode::kBadArguments, "simstate: mflop out of range");
        }
        if (state_kb < 1 || state_kb > 65536) {
          return make_error(ErrorCode::kBadArguments, "simstate: state_kb out of range");
        }
        const double rate = native_mflops > 0 ? native_mflops : 100.0;
        const auto total = static_cast<std::uint64_t>(mflop);
        const std::size_t n = static_cast<std::size_t>(state_kb) * 128;  // doubles per KB
        std::vector<double> state;
        std::uint64_t done = checkpoint::restore([&](serial::Decoder& dec) {
          auto t = dec.get_u64();
          if (!t.ok() || t.value() != total) return false;
          auto s = dec.get_f64_array(n);
          if (!s.ok() || s.value().size() != n) return false;
          state = std::move(s).value();
          return true;
        });
        if (state.empty()) {
          state.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            state[i] = static_cast<double>(i % 4);
          }
        }
        auto& work_done = metrics::counter("server.work_mflop_total");
        while (done < total) {
          if (cancel::poll()) return cancel::cancelled_error("simstate");
          const double slice_s = std::min(static_cast<double>(total - done) / rate, 0.01);
          sleep_seconds(slice_s);
          const auto step = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(slice_s * rate + 0.5));
          const std::uint64_t add = std::min(step, total - done);
          done += add;
          work_done.inc(add);
          for (std::uint64_t k = 0; k < 4; ++k) {
            state[static_cast<std::size_t>((done * 31 + k * 7) % n)] += 1.0;
          }
          const double frac = total > 0 ? static_cast<double>(total - done) /
                                              static_cast<double>(total)
                                        : 0.0;
          checkpoint::tick(done, frac, [&](serial::Encoder& enc) {
            enc.put_u64(total);
            enc.put_f64_array(state);
          });
        }
        return make_args(mflop);
      });
}

std::string builtin_spec_text() {
  dsl::ProblemRegistry registry;
  register_builtin_problems(registry, 100.0);
  return dsl::format_spec_file(registry.all_specs());
}

}  // namespace ns::server

// Tests for ns_dsl: data objects (round-trip, sizes, hostile input),
// problem specs (validation, complexity), registry, and spec files.
#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "dsl/problem.hpp"
#include "linalg/blas.hpp"
#include "dsl/registry.hpp"
#include "dsl/specfile.hpp"
#include "dsl/value.hpp"
#include "server/builtin_problems.hpp"

namespace ns::dsl {
namespace {

serial::Bytes encode_one(const DataObject& obj) {
  serial::Encoder enc;
  obj.encode(enc);
  return enc.take();
}

Result<DataObject> decode_one(const serial::Bytes& bytes) {
  serial::Decoder dec(bytes);
  auto obj = DataObject::decode(dec);
  if (obj.ok()) {
    EXPECT_TRUE(dec.expect_exhausted().ok());
  }
  return obj;
}

// ---- DataObject round trips ----

TEST(DataObjectTest, IntRoundTrip) {
  const DataObject obj(std::int64_t{-123456789});
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obj);
  EXPECT_EQ(back.value().type(), DataType::kInt);
}

TEST(DataObjectTest, DoubleRoundTrip) {
  const DataObject obj(2.718281828);
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obj);
}

TEST(DataObjectTest, StringRoundTrip) {
  const DataObject obj(std::string("hello netsolve"));
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().as_string(), "hello netsolve");
}

TEST(DataObjectTest, VectorRoundTrip) {
  const DataObject obj(linalg::Vector{1.5, -2.5, 0.0, 4.25});
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obj);
}

TEST(DataObjectTest, MatrixRoundTrip) {
  Rng rng(1);
  const DataObject obj(linalg::Matrix::random(7, 5, rng));
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obj);
  EXPECT_EQ(back.value().as_matrix().rows(), 7u);
  EXPECT_EQ(back.value().as_matrix().cols(), 5u);
}

TEST(DataObjectTest, SparseRoundTrip) {
  const DataObject obj(linalg::poisson_2d(4, 4));
  auto back = decode_one(encode_one(obj));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), obj);
}

TEST(DataObjectTest, EmptyContainers) {
  EXPECT_TRUE(decode_one(encode_one(DataObject(linalg::Vector{}))).ok());
  EXPECT_TRUE(decode_one(encode_one(DataObject(std::string{}))).ok());
}

// ---- size accounting ----

TEST(DataObjectTest, ByteSizeMatchesEncoding) {
  Rng rng(2);
  const std::vector<DataObject> objs = {
      DataObject(std::int64_t{7}),
      DataObject(1.5),
      DataObject(std::string("abcdef")),
      DataObject(linalg::Vector(100, 1.0)),
      DataObject(linalg::Matrix::random(9, 4, rng)),
      DataObject(linalg::poisson_1d(20)),
  };
  for (const auto& obj : objs) {
    EXPECT_EQ(obj.byte_size(), encode_one(obj).size())
        << "type " << static_cast<int>(obj.type());
  }
}

TEST(DataObjectTest, ArgsByteSizeMatchesEncoding) {
  Rng rng(3);
  const std::vector<DataObject> args = {DataObject(linalg::Matrix::random(6, 6, rng)),
                                        DataObject(linalg::Vector(6, 0.5))};
  serial::Encoder enc;
  encode_args(enc, args);
  EXPECT_EQ(args_byte_size(args), enc.size());
}

TEST(DataObjectTest, SizeHints) {
  Rng rng(4);
  EXPECT_EQ(DataObject(std::int64_t{512}).size_hint(), 512u);
  EXPECT_EQ(DataObject(std::int64_t{-3}).size_hint(), 3u);
  EXPECT_EQ(DataObject(std::int64_t{0}).size_hint(), 1u);
  EXPECT_EQ(DataObject(2.5).size_hint(), 1u);
  EXPECT_EQ(DataObject(linalg::Vector(42)).size_hint(), 42u);
  EXPECT_EQ(DataObject(linalg::Matrix(10, 30)).size_hint(), 30u);
  EXPECT_EQ(DataObject(linalg::poisson_1d(17)).size_hint(), 17u);
}

// ---- hostile input ----

TEST(DataObjectTest, UnknownTagRejected) {
  serial::Bytes bytes{99};
  serial::Decoder dec(bytes);
  EXPECT_FALSE(DataObject::decode(dec).ok());
}

TEST(DataObjectTest, MatrixSizeMismatchRejected) {
  serial::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(DataType::kMatrix));
  enc.put_u32(3);
  enc.put_u32(3);
  enc.put_f64_array(std::vector<double>(5));  // 5 != 9
  serial::Decoder dec(enc.bytes());
  auto obj = DataObject::decode(dec);
  ASSERT_FALSE(obj.ok());
  EXPECT_EQ(obj.error().code, ErrorCode::kProtocol);
}

TEST(DataObjectTest, InvalidCsrPayloadRejected) {
  serial::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(DataType::kSparse));
  enc.put_u32(2);
  enc.put_u32(2);
  enc.put_i32_array(std::vector<std::int32_t>{0, 1});  // indptr too short
  enc.put_i32_array(std::vector<std::int32_t>{0});
  enc.put_f64_array(std::vector<double>{1.0});
  serial::Decoder dec(enc.bytes());
  EXPECT_FALSE(DataObject::decode(dec).ok());
}

TEST(DataObjectTest, TruncatedPayloadRejected) {
  auto bytes = encode_one(DataObject(linalg::Vector(16, 1.0)));
  bytes.resize(bytes.size() / 2);
  serial::Decoder dec(bytes);
  EXPECT_FALSE(DataObject::decode(dec).ok());
}

TEST(ArgsTest, TooManyArgsRejected) {
  serial::Encoder enc;
  enc.put_u32(100000);
  serial::Decoder dec(enc.bytes());
  EXPECT_FALSE(decode_args(dec).ok());
}

// ---- property: random typed payloads survive the wire ----

class DataObjectRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataObjectRoundTripTest, RandomObjectsRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    DataObject obj;
    switch (rng.uniform_int(0, 5)) {
      case 0:
        obj = DataObject(static_cast<std::int64_t>(rng.next_u64()));
        break;
      case 1:
        obj = DataObject(rng.normal() * 1e12);
        break;
      case 2: {
        std::string s;
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
        for (std::size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        obj = DataObject(std::move(s));
        break;
      }
      case 3:
        obj = DataObject(
            linalg::random_vector(static_cast<std::size_t>(rng.uniform_int(0, 200)), rng));
        break;
      case 4:
        obj = DataObject(
            linalg::Matrix::random(static_cast<std::size_t>(rng.uniform_int(1, 20)),
                                   static_cast<std::size_t>(rng.uniform_int(1, 20)), rng));
        break;
      default:
        obj = DataObject(linalg::random_sparse_spd(
            static_cast<std::size_t>(rng.uniform_int(1, 30)), 3, rng));
        break;
    }
    auto back = decode_one(encode_one(obj));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), obj);
    EXPECT_EQ(obj.byte_size(), encode_one(obj).size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataObjectRoundTripTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---- data type names ----

TEST(DataTypeTest, NameRoundTrip) {
  for (const auto t : {DataType::kInt, DataType::kDouble, DataType::kString, DataType::kVector,
                       DataType::kMatrix, DataType::kSparse}) {
    auto parsed = parse_data_type(data_type_name(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
  EXPECT_FALSE(parse_data_type("gibberish").ok());
}

// ---- ProblemSpec ----

ProblemSpec make_test_spec() {
  ProblemSpec spec;
  spec.name = "testp";
  spec.description = "a test problem";
  spec.inputs = {{"A", DataType::kMatrix}, {"b", DataType::kVector}};
  spec.outputs = {{"x", DataType::kVector}};
  spec.complexity = ComplexityModel{2.0, 3.0};
  spec.size_arg = 0;
  return spec;
}

TEST(ProblemSpecTest, ComplexityModel) {
  const ComplexityModel model{0.5, 3.0};
  EXPECT_DOUBLE_EQ(model.flops(10), 500.0);
  EXPECT_DOUBLE_EQ(model.flops(1), 0.5);
}

TEST(ProblemSpecTest, PredictedFlopsUsesSizeArg) {
  auto spec = make_test_spec();
  spec.size_arg = 1;
  const std::vector<DataObject> args = {DataObject(linalg::Matrix(100, 100)),
                                        DataObject(linalg::Vector(10))};
  EXPECT_DOUBLE_EQ(spec.predicted_flops(args), 2.0 * 1000.0);
}

TEST(ProblemSpecTest, PredictedFlopsFallsBackToFirstArg) {
  auto spec = make_test_spec();
  spec.size_arg = 9;  // out of range
  const std::vector<DataObject> args = {DataObject(linalg::Matrix(10, 10)),
                                        DataObject(linalg::Vector(10))};
  EXPECT_DOUBLE_EQ(spec.predicted_flops(args), 2.0 * 1000.0);
}

TEST(ProblemSpecTest, ValidateInputsAcceptsMatching) {
  const auto spec = make_test_spec();
  EXPECT_TRUE(spec.validate_inputs({DataObject(linalg::Matrix(2, 2)),
                                    DataObject(linalg::Vector(2))})
                  .ok());
}

TEST(ProblemSpecTest, ValidateInputsRejectsCountMismatch) {
  const auto spec = make_test_spec();
  auto status = spec.validate_inputs({DataObject(linalg::Matrix(2, 2))});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kBadArguments);
}

TEST(ProblemSpecTest, ValidateInputsRejectsTypeMismatch) {
  const auto spec = make_test_spec();
  auto status =
      spec.validate_inputs({DataObject(1.5), DataObject(linalg::Vector(2))});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("expects matrixd"), std::string::npos);
}

TEST(ProblemSpecTest, ValidateOutputs) {
  const auto spec = make_test_spec();
  EXPECT_TRUE(spec.validate_outputs({DataObject(linalg::Vector(2))}).ok());
  EXPECT_FALSE(spec.validate_outputs({DataObject(1.0)}).ok());
  EXPECT_FALSE(spec.validate_outputs({}).ok());
}

TEST(ProblemSpecTest, WireRoundTrip) {
  const auto spec = make_test_spec();
  serial::Encoder enc;
  spec.encode(enc);
  serial::Decoder dec(enc.bytes());
  auto back = ProblemSpec::decode(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), spec);
}

// ---- registry ----

TEST(RegistryTest, ExecuteValidatedProblem) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "double_it";
  spec.inputs = {{"x", DataType::kDouble}};
  spec.outputs = {{"y", DataType::kDouble}};
  registry.add(spec, [](const std::vector<DataObject>& args) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(args[0].as_double() * 2)};
  });

  EXPECT_TRUE(registry.contains("double_it"));
  EXPECT_EQ(registry.size(), 1u);
  auto out = registry.execute("double_it", {DataObject(21.0)});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.value()[0].as_double(), 42.0);
}

// make_args moves each output into the list and execute() hands the list
// on, so a result vector reaches the caller as the same allocation the
// executor filled: no output is copied on the way out.
TEST(RegistryTest, OutputsMoveToTheCaller) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "fill";
  spec.inputs = {};
  spec.outputs = {{"v", DataType::kVector}, {"n", DataType::kDouble}};
  const double* filled = nullptr;
  registry.add(spec, [&filled](const auto&) -> Result<std::vector<DataObject>> {
    linalg::Vector v(1u << 16, 1.5);
    filled = v.data();
    return dsl::make_args(std::move(v), 2.0);
  });
  auto out = registry.execute("fill", {});
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  ASSERT_NE(filled, nullptr);
  EXPECT_EQ(out.value()[0].as_vector().data(), filled) << "the result vector was copied";
  EXPECT_EQ(out.value()[0].as_vector().size(), 1u << 16);
  EXPECT_DOUBLE_EQ(out.value()[1].as_double(), 2.0);
}

TEST(RegistryTest, UnknownProblem) {
  ProblemRegistry registry;
  auto out = registry.execute("nope", {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kUnknownProblem);
}

TEST(RegistryTest, InputValidationBeforeExecution) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "p";
  spec.inputs = {{"x", DataType::kDouble}};
  spec.outputs = {{"y", DataType::kDouble}};
  bool executed = false;
  registry.add(spec, [&executed](const auto&) -> Result<std::vector<DataObject>> {
    executed = true;
    return std::vector<DataObject>{DataObject(0.0)};
  });
  auto out = registry.execute("p", {DataObject(std::string("wrong type"))});
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(executed) << "executor must not run on invalid input";
}

TEST(RegistryTest, OutputValidationCatchesBuggyExecutor) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "buggy";
  spec.inputs = {};
  spec.outputs = {{"y", DataType::kDouble}};
  registry.add(spec, [](const auto&) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(std::string("not a double"))};
  });
  auto out = registry.execute("buggy", {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kExecutionFailed);
}

TEST(RegistryTest, OverrideSpecKeepsExecutor) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "p";
  spec.inputs = {{"x", DataType::kDouble}};
  spec.outputs = {{"y", DataType::kDouble}};
  spec.complexity = {1.0, 1.0};
  registry.add(spec, [](const std::vector<DataObject>& args) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(args[0].as_double() + 1)};
  });

  ProblemSpec tuned = spec;
  tuned.description = "re-tuned by the admin";
  tuned.complexity = {42.0, 2.5};
  tuned.inputs[0].name = "renamed_ok";
  ASSERT_TRUE(registry.override_spec(tuned).ok());
  EXPECT_EQ(registry.spec("p")->description, "re-tuned by the admin");
  EXPECT_DOUBLE_EQ(registry.spec("p")->complexity.a, 42.0);
  // Executor untouched.
  EXPECT_DOUBLE_EQ(registry.execute("p", {DataObject(1.0)}).value()[0].as_double(), 2.0);
}

TEST(RegistryTest, OverrideSpecRejectsSignatureChange) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "p";
  spec.inputs = {{"x", DataType::kDouble}};
  spec.outputs = {{"y", DataType::kDouble}};
  registry.add(spec, [](const auto&) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(0.0)};
  });

  ProblemSpec wrong_type = spec;
  wrong_type.inputs[0].type = DataType::kMatrix;
  EXPECT_FALSE(registry.override_spec(wrong_type).ok());

  ProblemSpec wrong_arity = spec;
  wrong_arity.inputs.push_back({"extra", DataType::kInt});
  EXPECT_FALSE(registry.override_spec(wrong_arity).ok());

  ProblemSpec unknown = spec;
  unknown.name = "nope";
  auto status = registry.override_spec(unknown);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kUnknownProblem);
}

TEST(RegistryTest, ReregistrationReplaces) {
  ProblemRegistry registry;
  ProblemSpec spec;
  spec.name = "p";
  spec.outputs = {{"y", DataType::kInt}};
  registry.add(spec, [](const auto&) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(std::int64_t{1})};
  });
  registry.add(spec, [](const auto&) -> Result<std::vector<DataObject>> {
    return std::vector<DataObject>{DataObject(std::int64_t{2})};
  });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.execute("p", {}).value()[0].as_int(), 2);
}

// ---- spec files ----

TEST(SpecFileTest, ParseSingleBlock) {
  const auto specs = parse_spec_file(R"(
# catalogue fragment
@PROBLEM dgesv
@DESCRIPTION Solve a dense linear system
@INPUT A matrixd
@INPUT b vectord
@OUTPUT x vectord
@COMPLEXITY 0.667 3
)");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 1u);
  const auto& spec = specs.value()[0];
  EXPECT_EQ(spec.name, "dgesv");
  EXPECT_EQ(spec.description, "Solve a dense linear system");
  ASSERT_EQ(spec.inputs.size(), 2u);
  EXPECT_EQ(spec.inputs[0].name, "A");
  EXPECT_EQ(spec.inputs[0].type, DataType::kMatrix);
  ASSERT_EQ(spec.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.complexity.a, 0.667);
  EXPECT_DOUBLE_EQ(spec.complexity.b, 3.0);
  EXPECT_EQ(spec.size_arg, 0u);
}

TEST(SpecFileTest, ParseMultipleBlocksWithSizeArg) {
  const auto specs = parse_spec_file(R"(
@PROBLEM one
@OUTPUT y double
@COMPLEXITY 1 1

@PROBLEM two
@INPUT n int
@INPUT x vectord
@OUTPUT y vectord
@COMPLEXITY 2 1
@SIZEARG 1
)");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[1].size_arg, 1u);
}

TEST(SpecFileTest, Errors) {
  EXPECT_FALSE(parse_spec_file("@INPUT x double\n").ok()) << "directive before @PROBLEM";
  EXPECT_FALSE(parse_spec_file("@PROBLEM\n").ok()) << "missing name";
  EXPECT_FALSE(parse_spec_file("@PROBLEM p\n@INPUT x bogustype\n").ok()) << "bad type";
  EXPECT_FALSE(parse_spec_file("@PROBLEM p\n@COMPLEXITY a b\n").ok()) << "non-numeric";
  EXPECT_FALSE(parse_spec_file("@PROBLEM p\n@WHATEVER x\n").ok()) << "unknown directive";
  EXPECT_FALSE(parse_spec_file("@PROBLEM p\n@SIZEARG -1\n").ok()) << "negative size arg";
}

TEST(SpecFileTest, FormatParsesBack) {
  auto spec = make_test_spec();
  const std::string text = format_spec_file({spec});
  auto parsed = parse_spec_file(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0], spec);
}

TEST(SpecFileTest, BuiltinCatalogueRoundTrips) {
  const std::string text = server::builtin_spec_text();
  auto specs = parse_spec_file(text);
  ASSERT_TRUE(specs.ok());
  EXPECT_GE(specs.value().size(), 15u) << "catalogue should be substantial";
  // Spot-check a few expected entries.
  bool has_dgesv = false, has_cg = false, has_mandelbrot = false;
  for (const auto& s : specs.value()) {
    if (s.name == "dgesv") has_dgesv = true;
    if (s.name == "cg") has_cg = true;
    if (s.name == "mandelbrot") has_mandelbrot = true;
  }
  EXPECT_TRUE(has_dgesv);
  EXPECT_TRUE(has_cg);
  EXPECT_TRUE(has_mandelbrot);
}

// ---- builtin problem executors (direct, no network) ----

class BuiltinProblemTest : public ::testing::Test {
 protected:
  BuiltinProblemTest() { server::register_builtin_problems(registry_, 200.0); }
  ProblemRegistry registry_;
  Rng rng_{0xabc};
};

TEST_F(BuiltinProblemTest, DgesvSolves) {
  const auto a = linalg::Matrix::random_diag_dominant(20, rng_);
  const auto x_true = linalg::random_vector(20, rng_);
  linalg::Vector b(20, 0.0);
  linalg::gemv(1.0, a, x_true, 0.0, b);
  auto out = registry_.execute("dgesv", {DataObject(a), DataObject(b)});
  ASSERT_TRUE(out.ok());
  EXPECT_LT(linalg::max_abs_diff(out.value()[0].as_vector(), x_true), 1e-8);
}

TEST_F(BuiltinProblemTest, DgemmMultiplies) {
  const auto a = linalg::Matrix::random(8, 6, rng_);
  const auto b = linalg::Matrix::random(6, 4, rng_);
  auto out = registry_.execute("dgemm", {DataObject(a), DataObject(b)});
  ASSERT_TRUE(out.ok());
  EXPECT_LT(linalg::max_abs_diff(out.value()[0].as_matrix(), linalg::matmul(a, b)), 1e-12);
}

TEST_F(BuiltinProblemTest, DimensionMismatchSurfacesBadArguments) {
  auto out = registry_.execute(
      "dgemm", {DataObject(linalg::Matrix(3, 3)), DataObject(linalg::Matrix(4, 4))});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kBadArguments);
}

TEST_F(BuiltinProblemTest, CgSolvesSparse) {
  const auto a = linalg::poisson_2d(8, 8);
  const linalg::Vector b(64, 1.0);
  auto out = registry_.execute("cg", {DataObject(a), DataObject(b)});
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value()[1].as_int(), 0) << "iteration count reported";
  const auto& x = out.value()[0].as_vector();
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-6);
}

TEST_F(BuiltinProblemTest, MandelbrotCountsBounded) {
  auto out = registry_.execute(
      "mandelbrot", {DataObject(-0.5), DataObject(0.0), DataObject(1.5),
                     DataObject(std::int64_t{16}), DataObject(std::int64_t{50})});
  ASSERT_TRUE(out.ok());
  const auto& counts = out.value()[0].as_vector();
  ASSERT_EQ(counts.size(), 256u);
  for (const double c : counts) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 50.0);
  }
}

TEST_F(BuiltinProblemTest, MandelbrotRejectsBadResolution) {
  auto out = registry_.execute(
      "mandelbrot", {DataObject(0.0), DataObject(0.0), DataObject(1.0),
                     DataObject(std::int64_t{-1}), DataObject(std::int64_t{10})});
  EXPECT_FALSE(out.ok());
}

TEST_F(BuiltinProblemTest, BusyworkTakesProportionalTime) {
  // At 200 "Mflops", 20 Mflop should take ~0.1 s and 5 Mflop ~0.025 s.
  const Stopwatch w1;
  ASSERT_TRUE(registry_.execute("busywork", {DataObject(std::int64_t{20})}).ok());
  const double t20 = w1.elapsed();
  const Stopwatch w2;
  ASSERT_TRUE(registry_.execute("busywork", {DataObject(std::int64_t{5})}).ok());
  const double t5 = w2.elapsed();
  EXPECT_NEAR(t20, 0.1, 0.05);
  EXPECT_GT(t20, t5 * 2);
}

TEST_F(BuiltinProblemTest, EigSymOrdered) {
  const auto a = linalg::Matrix::random_spd(10, rng_);
  auto out = registry_.execute("eig_sym", {DataObject(a)});
  ASSERT_TRUE(out.ok());
  const auto& values = out.value()[0].as_vector();
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(values[i - 1], values[i] + 1e-12);
  }
}

TEST_F(BuiltinProblemTest, PolyfitViaRegistry) {
  linalg::Vector x{0, 1, 2, 3}, y{1, 3, 5, 7};
  auto out = registry_.execute(
      "polyfit", {DataObject(x), DataObject(y), DataObject(std::int64_t{1})});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out.value()[0].as_vector()[0], 1.0, 1e-9);
  EXPECT_NEAR(out.value()[0].as_vector()[1], 2.0, 1e-9);
}

}  // namespace
}  // namespace ns::dsl

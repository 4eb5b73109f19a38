// Typed argument objects — the values a NetSolve request carries.
//
// Matches the original system's object model: scalars, strings, dense
// vectors/matrices and sparse matrices, each self-describing on the wire so
// a server can type-check a request against the problem description before
// executing it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "serial/codec.hpp"

namespace ns::dsl {

enum class DataType : std::uint8_t {
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kVector = 4,
  kMatrix = 5,
  kSparse = 6,
};

std::string_view data_type_name(DataType type) noexcept;
Result<DataType> parse_data_type(std::string_view name);

class DataObject {
 public:
  DataObject() : value_(std::int64_t{0}) {}
  DataObject(std::int64_t v) : value_(v) {}                     // NOLINT
  DataObject(double v) : value_(v) {}                           // NOLINT
  DataObject(std::string v) : value_(std::move(v)) {}           // NOLINT
  DataObject(linalg::Vector v) : value_(std::move(v)) {}        // NOLINT
  DataObject(linalg::Matrix v) : value_(std::move(v)) {}        // NOLINT
  DataObject(linalg::CsrMatrix v) : value_(std::move(v)) {}     // NOLINT
  /// Disambiguation helpers for literals.
  static DataObject from_int(std::int64_t v) { return DataObject(v); }

  DataType type() const noexcept;

  bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const noexcept { return std::holds_alternative<double>(value_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_vector() const noexcept { return std::holds_alternative<linalg::Vector>(value_); }
  bool is_matrix() const noexcept { return std::holds_alternative<linalg::Matrix>(value_); }
  bool is_sparse() const noexcept { return std::holds_alternative<linalg::CsrMatrix>(value_); }

  std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  double as_double() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const linalg::Vector& as_vector() const { return std::get<linalg::Vector>(value_); }
  const linalg::Matrix& as_matrix() const { return std::get<linalg::Matrix>(value_); }
  const linalg::CsrMatrix& as_sparse() const { return std::get<linalg::CsrMatrix>(value_); }

  /// Dominant dimension for the complexity model: matrix max(rows, cols),
  /// vector length, sparse order, |int| value for scalar ints, 1 otherwise.
  std::size_t size_hint() const noexcept;

  /// Serialized payload size in bytes (the scheduler's transfer-cost input).
  std::size_t byte_size() const noexcept;

  void encode(serial::Encoder& enc) const;
  static Result<DataObject> decode(serial::Decoder& dec);

  /// Structural equality (exact; used by tests).
  friend bool operator==(const DataObject& a, const DataObject& b);

 private:
  std::variant<std::int64_t, double, std::string, linalg::Vector, linalg::Matrix,
               linalg::CsrMatrix>
      value_;
};

/// Build an argument list by moving each value in. A braced
/// `std::vector<DataObject>{...}` copies every element out of its
/// initializer_list, which for a vector or matrix result is the whole result.
template <class... Values>
std::vector<DataObject> make_args(Values&&... values) {
  std::vector<DataObject> args;
  args.reserve(sizeof...(Values));
  (args.emplace_back(std::forward<Values>(values)), ...);
  return args;
}

/// Encode/decode a whole argument list.
void encode_args(serial::Encoder& enc, const std::vector<DataObject>& args);
Result<std::vector<DataObject>> decode_args(serial::Decoder& dec);

/// Total serialized size of an argument list.
std::size_t args_byte_size(const std::vector<DataObject>& args) noexcept;

}  // namespace ns::dsl

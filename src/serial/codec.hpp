// Portable binary encoding, in the spirit of the XDR layer the original
// NetSolve used to move typed arguments between heterogeneous hosts.
//
// All multi-byte values are encoded explicitly little-endian regardless of
// host byte order; floating point travels as IEEE-754 bit patterns. Strings,
// blobs and numeric arrays carry a u32 length prefix. The Decoder performs
// bounds checking on every read and reports ErrorCode::kProtocol on any
// truncated or malformed input — a remote peer can never crash the process
// with a bad payload.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace ns::serial {

using Bytes = std::vector<std::uint8_t>;

class Encoder {
 public:
  Encoder() = default;

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_string(std::string_view s);
  void put_bytes(const void* data, std::size_t size);

  /// Length-prefixed array of doubles (bulk memcpy on little-endian hosts).
  void put_f64_array(const double* data, std::size_t count);
  void put_f64_array(const std::vector<double>& v) { put_f64_array(v.data(), v.size()); }

  /// Length-prefixed array of 32-bit signed integers.
  void put_i32_array(const std::int32_t* data, std::size_t count);
  void put_i32_array(const std::vector<std::int32_t>& v) { put_i32_array(v.data(), v.size()); }

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }
  void reserve(std::size_t n) { buf_.reserve(n); }
  void clear() noexcept { buf_.clear(); }

 private:
  template <typename T>
  void put_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), le, le + sizeof(T));
  }
  /// Append raw bytes to the buffer.
  void append(const void* data, std::size_t size);

  Bytes buf_;
};

class Decoder {
 public:
  /// The decoder does not own the buffer; it must outlive the decoder.
  Decoder(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit Decoder(const Bytes& bytes) : Decoder(bytes.data(), bytes.size()) {}

  Result<std::uint8_t> get_u8();
  Result<std::uint16_t> get_u16();
  Result<std::uint32_t> get_u32();
  Result<std::uint64_t> get_u64();
  Result<std::int32_t> get_i32();
  Result<std::int64_t> get_i64();
  Result<double> get_f64();
  Result<bool> get_bool();

  /// Length-prefixed string. `max_len` caps the accepted length so a
  /// malicious peer cannot force a huge allocation.
  Result<std::string> get_string(std::size_t max_len = kDefaultMaxLen);
  Result<Bytes> get_blob(std::size_t max_len = kDefaultMaxBlob);
  Result<std::vector<double>> get_f64_array(std::size_t max_count = kDefaultMaxArray);
  Result<std::vector<std::int32_t>> get_i32_array(std::size_t max_count = kDefaultMaxArray);

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool exhausted() const noexcept { return pos_ == size_; }

  /// Fails unless every byte has been consumed — catches trailing garbage.
  Status expect_exhausted() const;

  static constexpr std::size_t kDefaultMaxLen = 1u << 20;      // 1 MiB strings
  static constexpr std::size_t kDefaultMaxBlob = 1u << 30;     // 1 GiB blobs
  static constexpr std::size_t kDefaultMaxArray = 1u << 27;    // 128M elements

 private:
  template <typename T>
  Result<T> get_le() {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) {
      return make_error(ErrorCode::kProtocol, "truncated input");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ns::serial

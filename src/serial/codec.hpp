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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace ns::serial {

using Bytes = std::vector<std::uint8_t>;

/// A gathering encoder borrows each f64/i32 array of at least this many
/// bytes instead of copying it; smaller arrays are cheaper to copy than to
/// send as a piece of their own.
inline constexpr std::size_t kBorrowMinBytes = 16 * 1024;

/// One frame payload: inline bytes with borrowed arrays spliced in at
/// recorded offsets. A plain Bytes is the payload with no borrowed spans.
/// Borrowed bytes must stay valid for as long as the payload is sent: a
/// synchronous sender's caller keeps them alive, and a queued sender keeps
/// the payload's owner.
class Payload {
 public:
  Payload() = default;
  Payload(Bytes bytes) noexcept : inline_(std::move(bytes)) {}  // NOLINT: a plain payload

  /// Total payload bytes, inline and borrowed.
  std::size_t size() const noexcept { return inline_.size() + borrowed_; }

  /// Calls `piece(const std::uint8_t*, std::size_t)` for each non-empty
  /// piece, in wire order.
  template <typename F>
  void for_each_piece(F&& piece) const {
    std::size_t at = 0;
    for (const Span& s : spans_) {
      if (s.at > at) piece(inline_.data() + at, s.at - at);
      piece(s.data, s.size);
      at = s.at;
    }
    if (inline_.size() > at) piece(inline_.data() + at, inline_.size() - at);
  }

  /// The payload as one contiguous buffer (a copy of every piece).
  Bytes flatten() const;

 private:
  friend class Encoder;
  struct Span {
    std::size_t at;  // inline offset the borrowed bytes follow
    const std::uint8_t* data;
    std::size_t size;
  };

  Bytes inline_;
  std::vector<Span> spans_;
  std::size_t borrowed_ = 0;
  std::shared_ptr<const void> owner_;  // keeps the borrowed bytes alive
};

class Encoder {
 public:
  /// Contiguous: every byte is copied into one buffer.
  Encoder() = default;
  /// Borrows arrays of at least kBorrowMinBytes (on little-endian hosts,
  /// where their bytes are already the wire bytes); take_payload() then
  /// hands them on as spans. For encodes that are sent and dropped, never
  /// for bytes kept at rest.
  static Encoder gathering() {
    Encoder enc;
    enc.gather_ = true;
    return enc;
  }

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

  /// The encoded bytes of a contiguous encoder.
  const Bytes& bytes() const noexcept { return buf_; }
  /// The encoded bytes as one buffer (borrowed arrays copied in).
  Bytes take();
  /// The encoded payload; `owner`, if set, keeps the borrowed arrays alive
  /// for as long as the payload is.
  Payload take_payload(std::shared_ptr<const void> owner = nullptr);
  std::size_t size() const noexcept { return buf_.size() + borrowed_; }
  /// Reserves room for `n` bytes. A gathering encoder's inline part holds
  /// no bulk arrays, so it skips the reservation and grows as needed.
  void reserve(std::size_t n) {
    if (!gather_) buf_.reserve(n);
  }

 private:
  template <typename T>
  void put_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, le, sizeof(T));
  }
  /// Append raw bytes to the buffer.
  void append(const void* data, std::size_t size);
  /// Append a little-endian array's bytes: borrowed when gathering and
  /// large enough, copied otherwise.
  void append_array(const void* data, std::size_t size);

  Bytes buf_;
  bool gather_ = false;
  std::vector<Payload::Span> spans_;
  std::size_t borrowed_ = 0;
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

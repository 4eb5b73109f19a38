#include "serial/codec.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace ns::serial {

namespace {

/// The `count` little-endian T values at `src`, which can sit at any byte
/// offset. They are staged through a small buffer with memcpy, so the
/// vector is allocated once and written once, with no zero-fill first and
/// no misaligned T loads.
template <typename T>
std::vector<T> le_array(const std::uint8_t* src, std::size_t count) {
  std::vector<T> out;
  out.reserve(count);
  T stage[4096 / sizeof(T)]{};
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(count - done, std::size(stage));
    std::memcpy(stage, src + done * sizeof(T), n * sizeof(T));
    out.insert(out.end(), stage, stage + n);
    done += n;
  }
  return out;
}

}  // namespace

Bytes Payload::flatten() const {
  if (spans_.empty()) return inline_;
  Bytes out;
  out.reserve(size());
  for_each_piece([&out](const std::uint8_t* p, std::size_t n) { out.insert(out.end(), p, p + n); });
  return out;
}

Bytes Encoder::take() {
  if (spans_.empty()) return std::move(buf_);
  return take_payload().flatten();
}

Payload Encoder::take_payload(std::shared_ptr<const void> owner) {
  Payload out;
  out.inline_ = std::move(buf_);
  out.spans_ = std::move(spans_);
  out.borrowed_ = std::exchange(borrowed_, 0);
  out.owner_ = std::move(owner);
  buf_.clear();
  spans_.clear();
  return out;
}

void Encoder::append_array(const void* data, std::size_t size) {
  if (gather_ && size >= kBorrowMinBytes) {
    spans_.push_back({buf_.size(), static_cast<const std::uint8_t*>(data), size});
    borrowed_ += size;
    return;
  }
  append(data, size);
}

void Encoder::append(const void* data, std::size_t size) {
  // insert() copies once into the grown tail; resize() + memcpy would
  // zero-fill the tail first and then copy over it.
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (size > 0) buf_.insert(buf_.end(), p, p + size);
}

void Encoder::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void Encoder::put_bytes(const void* data, std::size_t size) {
  put_u32(static_cast<std::uint32_t>(size));
  append(data, size);
}

void Encoder::put_f64_array(const double* data, std::size_t count) {
  put_u32(static_cast<std::uint32_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    append_array(data, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_f64(data[i]);
  }
}

void Encoder::put_i32_array(const std::int32_t* data, std::size_t count) {
  put_u32(static_cast<std::uint32_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    append_array(data, count * sizeof(std::int32_t));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_i32(data[i]);
  }
}

Result<std::uint8_t> Decoder::get_u8() {
  if (remaining() < 1) return make_error(ErrorCode::kProtocol, "truncated input");
  return data_[pos_++];
}

Result<std::uint16_t> Decoder::get_u16() { return get_le<std::uint16_t>(); }
Result<std::uint32_t> Decoder::get_u32() { return get_le<std::uint32_t>(); }
Result<std::uint64_t> Decoder::get_u64() { return get_le<std::uint64_t>(); }

Result<std::int32_t> Decoder::get_i32() {
  auto v = get_le<std::uint32_t>();
  if (!v.ok()) return v.error();
  return static_cast<std::int32_t>(v.value());
}

Result<std::int64_t> Decoder::get_i64() {
  auto v = get_le<std::uint64_t>();
  if (!v.ok()) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> Decoder::get_f64() {
  auto v = get_le<std::uint64_t>();
  if (!v.ok()) return v.error();
  return std::bit_cast<double>(v.value());
}

Result<bool> Decoder::get_bool() {
  auto v = get_u8();
  if (!v.ok()) return v.error();
  if (v.value() > 1) return make_error(ErrorCode::kProtocol, "bad bool encoding");
  return v.value() == 1;
}

Result<std::string> Decoder::get_string(std::size_t max_len) {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (len.value() > max_len) return make_error(ErrorCode::kProtocol, "string too long");
  if (remaining() < len.value()) return make_error(ErrorCode::kProtocol, "truncated string");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len.value());
  pos_ += len.value();
  return out;
}

Result<Bytes> Decoder::get_blob(std::size_t max_len) {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (len.value() > max_len) return make_error(ErrorCode::kProtocol, "blob too long");
  if (remaining() < len.value()) return make_error(ErrorCode::kProtocol, "truncated blob");
  Bytes out(data_ + pos_, data_ + pos_ + len.value());
  pos_ += len.value();
  return out;
}

Result<std::vector<double>> Decoder::get_f64_array(std::size_t max_count) {
  auto count = get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > max_count) return make_error(ErrorCode::kProtocol, "array too long");
  const std::size_t bytes = static_cast<std::size_t>(count.value()) * sizeof(double);
  if (remaining() < bytes) return make_error(ErrorCode::kProtocol, "truncated f64 array");
  std::vector<double> out;
  if constexpr (std::endian::native == std::endian::little) {
    out = le_array<double>(data_ + pos_, count.value());
  } else {
    out.resize(count.value());
    for (std::size_t i = 0; i < count.value(); ++i) {
      std::uint64_t bits = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        bits |= static_cast<std::uint64_t>(data_[pos_ + i * 8 + b]) << (8 * b);
      }
      out[i] = std::bit_cast<double>(bits);
    }
  }
  pos_ += bytes;
  return out;
}

Result<std::vector<std::int32_t>> Decoder::get_i32_array(std::size_t max_count) {
  auto count = get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > max_count) return make_error(ErrorCode::kProtocol, "array too long");
  const std::size_t bytes = static_cast<std::size_t>(count.value()) * sizeof(std::int32_t);
  if (remaining() < bytes) return make_error(ErrorCode::kProtocol, "truncated i32 array");
  std::vector<std::int32_t> out;
  if constexpr (std::endian::native == std::endian::little) {
    out = le_array<std::int32_t>(data_ + pos_, count.value());
  } else {
    out.resize(count.value());
    for (std::size_t i = 0; i < count.value(); ++i) {
      std::uint32_t bits = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        bits |= static_cast<std::uint32_t>(data_[pos_ + i * 4 + b]) << (8 * b);
      }
      out[i] = static_cast<std::int32_t>(bits);
    }
  }
  pos_ += bytes;
  return out;
}

Status Decoder::expect_exhausted() const {
  if (!exhausted()) {
    return make_error(ErrorCode::kProtocol,
                      "trailing bytes after message: " + std::to_string(remaining()));
  }
  return ok_status();
}

}  // namespace ns::serial

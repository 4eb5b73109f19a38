#include "serial/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace ns::serial {

namespace {

// Slicing-by-16: kTables[k][b] is the CRC register contribution of byte b
// followed by k zero bytes, so one step folds 16 input bytes with 16
// independent table lookups instead of a 16-long dependent chain. kTables[0]
// is the classic byte-at-a-time table and still runs the tail.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// The reflected CRC consumes bytes least-significant first, so each word is
// read little-endian whatever the host order.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  return v;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables;
  for (; size >= 16; bytes += 16, size -= 16) {
    const std::uint32_t a = load_le32(bytes) ^ crc;
    const std::uint32_t b = load_le32(bytes + 4);
    const std::uint32_t c = load_le32(bytes + 8);
    const std::uint32_t d = load_le32(bytes + 12);
    crc = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^ t[13][(a >> 16) & 0xffu] ^
          t[12][a >> 24] ^ t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^
          t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^ t[7][c & 0xffu] ^
          t[6][(c >> 8) & 0xffu] ^ t[5][(c >> 16) & 0xffu] ^ t[4][c >> 24] ^
          t[3][d & 0xffu] ^ t[2][(d >> 8) & 0xffu] ^ t[1][(d >> 16) & 0xffu] ^
          t[0][d >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, size));
}

}  // namespace ns::serial

#include "serial/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

std::uint32_t crc32_tables(std::uint32_t crc, const unsigned char* bytes,
                           std::size_t size) noexcept {
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

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), with the constants for
// the reflected polynomial 0xedb88320. Each constant is a power of x reduced
// mod P(x), bit-reflected and shifted left one bit: k1/k2 move a 128-bit lane
// forward by 512 bits (64-byte steps, four lanes), k3/k4 by 128 bits, k5
// folds 64 bits into 32, and P' with mu = floor(x^64 / P) drive the final
// Barrett reduction.
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

// Multiplies both 64-bit halves of `x` by the two halves of `k` and adds
// `next`: the 128 bits of `x` move forward by the distance `k` encodes.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Folds `size` bytes, a multiple of 16 and at least 64, into the running
// CRC register.
__attribute__((target("pclmul"))) std::uint32_t crc32_fold(std::uint32_t crc,
                                                           const unsigned char* p,
                                                           std::size_t size) noexcept {
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;

  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = fold(x0, k12, load(p));
    x1 = fold(x1, k12, load(p + 16));
    x2 = fold(x2, k12, load(p + 32));
    x3 = fold(x3, k12, load(p + 48));
  }

  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i x = fold(fold(fold(x0, k34, x1), k34, x2), k34, x3);
  for (; size >= 16; p += 16, size -= 16) x = fold(x, k34, load(p));

  // 128 -> 64 bits: the low half times k4, added to the high half.
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, k34, 0x10), _mm_srli_si128(x, 8));
  // 64 -> 32 bits: the low word times k5, added to the upper words.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, kK5), 0x00),
      _mm_srli_si128(x, 4));
  // Barrett reduction: t = (x mod x^32) * mu, then (t mod x^32) * P' cancels
  // all but the 32-bit remainder, which lands in the second word.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4)));
}

bool has_pclmul() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
}

#endif

}  // namespace

// Inputs of 64 bytes or more fold on CPUs with PCLMULQDQ; the tables take
// shorter inputs, the sub-16-byte tail and every other CPU. Both compute
// the same register, so callers cannot tell which ran.
std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (size >= 64 && has_pclmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = crc32_fold(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return crc32_tables(crc, bytes, size);
}

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  return crc32_final(crc32_update(kCrc32Init, data, size));
}

}  // namespace ns::serial

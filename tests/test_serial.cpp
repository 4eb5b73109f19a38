// Unit + property tests for ns_serial: codec round-trips, bounds checking,
// CRC32, frame encode/decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dsl/value.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "proto/messages.hpp"
#include "serial/codec.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "server/journal.hpp"

namespace ns::serial {
namespace {

// ---- scalar round trips ----

TEST(CodecTest, ScalarRoundTrip) {
  Encoder enc;
  enc.put_u8(0xab);
  enc.put_u16(0xbeef);
  enc.put_u32(0xdeadbeefu);
  enc.put_u64(0x0123456789abcdefULL);
  enc.put_i32(-12345);
  enc.put_i64(-9876543210LL);
  enc.put_f64(3.14159);
  enc.put_bool(true);
  enc.put_bool(false);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8().value(), 0xab);
  EXPECT_EQ(dec.get_u16().value(), 0xbeef);
  EXPECT_EQ(dec.get_u32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.get_i32().value(), -12345);
  EXPECT_EQ(dec.get_i64().value(), -9876543210LL);
  EXPECT_DOUBLE_EQ(dec.get_f64().value(), 3.14159);
  EXPECT_TRUE(dec.get_bool().value());
  EXPECT_FALSE(dec.get_bool().value());
  EXPECT_TRUE(dec.exhausted());
  EXPECT_TRUE(dec.expect_exhausted().ok());
}

TEST(CodecTest, LittleEndianLayout) {
  Encoder enc;
  enc.put_u32(0x01020304u);
  const auto& b = enc.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(CodecTest, SpecialDoubles) {
  Encoder enc;
  enc.put_f64(0.0);
  enc.put_f64(-0.0);
  enc.put_f64(std::numeric_limits<double>::infinity());
  enc.put_f64(-std::numeric_limits<double>::infinity());
  enc.put_f64(std::numeric_limits<double>::denorm_min());
  enc.put_f64(std::numeric_limits<double>::max());

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_f64().value(), 0.0);
  EXPECT_EQ(dec.get_f64().value(), -0.0);
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(dec.get_f64().value(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::max());
}

TEST(CodecTest, NanRoundTripsBitExact) {
  Encoder enc;
  enc.put_f64(std::numeric_limits<double>::quiet_NaN());
  Decoder dec(enc.bytes());
  EXPECT_TRUE(std::isnan(dec.get_f64().value()));
}

// ---- strings / blobs / arrays ----

TEST(CodecTest, StringRoundTrip) {
  Encoder enc;
  enc.put_string("");
  enc.put_string("hello world");
  enc.put_string(std::string(1000, 'x'));

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string().value(), "");
  EXPECT_EQ(dec.get_string().value(), "hello world");
  EXPECT_EQ(dec.get_string().value(), std::string(1000, 'x'));
}

TEST(CodecTest, StringWithEmbeddedNulAndBinary) {
  std::string s = "a";
  s.push_back('\0');
  s += "b\xff";
  Encoder enc;
  enc.put_string(s);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string().value(), s);
}

TEST(CodecTest, F64ArrayRoundTrip) {
  std::vector<double> v{1.5, -2.25, 0.0, 1e300, -1e-300};
  Encoder enc;
  enc.put_f64_array(v);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_f64_array().value(), v);
}

TEST(CodecTest, I32ArrayRoundTrip) {
  std::vector<std::int32_t> v{0, -1, 2147483647, -2147483648};
  Encoder enc;
  enc.put_i32_array(v);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_i32_array().value(), v);
}

TEST(CodecTest, EmptyArrays) {
  Encoder enc;
  enc.put_f64_array(std::vector<double>{});
  enc.put_i32_array(std::vector<std::int32_t>{});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_f64_array().value().empty());
  EXPECT_TRUE(dec.get_i32_array().value().empty());
}

// ---- malformed input rejection ----

TEST(CodecTest, TruncatedScalarFails) {
  Encoder enc;
  enc.put_u16(7);
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_u32().ok());
}

TEST(CodecTest, TruncatedStringFails) {
  Encoder enc;
  enc.put_u32(100);  // claims 100 bytes, provides none
  Decoder dec(enc.bytes());
  auto r = dec.get_string();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kProtocol);
}

TEST(CodecTest, OversizedStringRejected) {
  Encoder enc;
  enc.put_string("hello");
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_string(/*max_len=*/3).ok());
}

TEST(CodecTest, OversizedArrayRejected) {
  Encoder enc;
  enc.put_u32(0xffffffffu);  // absurd element count
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_f64_array().ok());
}

TEST(CodecTest, BadBoolRejected) {
  Encoder enc;
  enc.put_u8(2);
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_bool().ok());
}

TEST(CodecTest, TrailingBytesDetected) {
  Encoder enc;
  enc.put_u32(1);
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  (void)dec.get_u32();
  EXPECT_FALSE(dec.expect_exhausted().ok());
}

// ---- property: random message round trips ----

class CodecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecPropertyTest, RandomMixRoundTrips) {
  Rng rng(GetParam());
  // Build a random sequence of typed fields, encode, decode, compare.
  constexpr int kFields = 64;
  std::vector<int> kinds(kFields);
  std::vector<std::uint64_t> u64s(kFields);
  std::vector<double> doubles(kFields);
  std::vector<std::string> strings(kFields);

  Encoder enc;
  for (int i = 0; i < kFields; ++i) {
    kinds[i] = static_cast<int>(rng.uniform_int(0, 2));
    switch (kinds[i]) {
      case 0:
        u64s[i] = rng.next_u64();
        enc.put_u64(u64s[i]);
        break;
      case 1:
        doubles[i] = rng.normal() * 1e6;
        enc.put_f64(doubles[i]);
        break;
      default: {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 32));
        std::string s;
        for (std::size_t k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        strings[i] = s;
        enc.put_string(s);
        break;
      }
    }
  }

  Decoder dec(enc.bytes());
  for (int i = 0; i < kFields; ++i) {
    switch (kinds[i]) {
      case 0:
        EXPECT_EQ(dec.get_u64().value(), u64s[i]);
        break;
      case 1:
        EXPECT_DOUBLE_EQ(dec.get_f64().value(), doubles[i]);
        break;
      default:
        EXPECT_EQ(dec.get_string().value(), strings[i]);
        break;
    }
  }
  EXPECT_TRUE(dec.expect_exhausted().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- CRC32 ----

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE test vector.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = kCrc32Init;
  crc = crc32_update(crc, data.data(), 10);
  crc = crc32_update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc32_final(crc), crc32(data.data(), data.size()));
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string data(64, 'a');
  const auto base = crc32(data.data(), data.size());
  data[17] = 'b';
  EXPECT_NE(crc32(data.data(), data.size()), base);
}

// Bit-at-a-time reference for the same CRC (reflected 0xedb88320, init and
// final XOR 0xffffffff). The production code must agree with it everywhere.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> crc_test_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

// Every length up to 17 whole 64-byte blocks, from every start alignment:
// each count of folded blocks, each 16-byte remainder after them, each
// byte tail and each unaligned load all run against the bitwise reference.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const auto bytes = crc_test_bytes(1100 + 16, 0xc4c32);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(bytes.data() + offset, len), reference_crc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// A frame-sized buffer whose length is neither a multiple of 64 nor of 16.
TEST(Crc32Test, MatchesReferenceOnMultiMegabyteBuffer) {
  const auto bytes = crc_test_bytes((4u << 20) + 13, 0x4d1b);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), reference_crc32(bytes.data(), bytes.size()));
}

TEST(Crc32Test, IncrementalMatchesOneShotAtEverySplit) {
  const auto bytes = crc_test_bytes(1024, 0x5b117);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    std::uint32_t crc = crc32_update(kCrc32Init, bytes.data(), split);
    crc = crc32_update(crc, bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(crc32_final(crc), whole) << "split at " << split;
  }
}

// Format locks: a frame header and a journal record written with these
// checksums must keep validating, or every existing journal, spill file and
// peer on the old format is orphaned. The constants come from the original
// byte-at-a-time table; change them only with a deliberate format change.
TEST(Crc32Test, PinnedFrameHeaderBytes) {
  const std::string text = "NetSolve frame";
  const Bytes payload(text.begin(), text.end());
  std::uint8_t header[kHeaderSize];
  encode_frame_header(42, payload, header);
  const std::uint8_t expected[kHeaderSize] = {
      0x4e, 0x53, 0x56, 0x31,   // magic "NSV1"
      0x01, 0x00,               // version 1
      0x2a, 0x00,               // type 42
      0x0e, 0x00, 0x00, 0x00,   // length 14
      0x5d, 0xab, 0x83, 0x59};  // CRC 0x5983ab5d
  for (std::size_t i = 0; i < kHeaderSize; ++i) {
    EXPECT_EQ(header[i], expected[i]) << "header byte " << i;
  }
  auto decoded = decode_header(header);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(check_payload(decoded.value(), payload).ok());
}

// The frame header and journal record pins hash 14 and 50 bytes, less than
// one 64-byte fold block; this one pins a checksum the fold computes.
TEST(Crc32Test, PinnedFourKilobytePattern) {
  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xa3f5519cu);
}

TEST(Crc32Test, PinnedJournalRecordCrc) {
  server::JournalRecord rec;
  rec.type = server::JournalRecordType::kCompleted;
  rec.request_id = 0x1122334455667788ull;
  rec.wall_micros = 1700000000000000ll;
  rec.deadline_remaining_s = 1.5;
  rec.iteration = 7;
  rec.residual = 0.25;
  rec.data = {1, 2, 3, 4, 5};
  Bytes framed;
  rec.frame(framed);
  ASSERT_EQ(framed.size(), 8u + 50u);
  Decoder dec(framed);
  EXPECT_EQ(dec.get_u32().value(), 50u);           // payload length
  EXPECT_EQ(dec.get_u32().value(), 0x8dae9c78u);   // crc32(payload)
}

// ---- frames ----

TEST(FrameTest, HeaderRoundTrip) {
  FrameHeader header;
  header.type = 42;
  header.length = 1234;
  header.crc = 0xabcdef01u;
  std::uint8_t buf[kHeaderSize];
  encode_header(header, buf);
  auto decoded = decode_header(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, 42);
  EXPECT_EQ(decoded.value().length, 1234u);
  EXPECT_EQ(decoded.value().crc, 0xabcdef01u);
  EXPECT_EQ(decoded.value().version, kProtocolVersion);
}

TEST(FrameTest, BadMagicRejected) {
  std::uint8_t buf[kHeaderSize] = {};
  auto decoded = decode_header(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocol);
}

TEST(FrameTest, WrongVersionRejected) {
  FrameHeader header;
  header.version = kProtocolVersion + 1;
  std::uint8_t buf[kHeaderSize];
  encode_header(header, buf);
  auto decoded = decode_header(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kVersion);
}

TEST(FrameTest, BuildAndValidate) {
  Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = build_frame(7, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());
  auto header = decode_header(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, 7);
  Bytes body(frame.begin() + kHeaderSize, frame.end());
  EXPECT_TRUE(check_payload(header.value(), body).ok());
}

TEST(FrameTest, CorruptPayloadDetected) {
  Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = build_frame(7, payload);
  auto header = decode_header(frame.data()).value();
  Bytes body(frame.begin() + kHeaderSize, frame.end());
  body[2] ^= 0x40;
  auto status = check_payload(header, body);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCorruptFrame);
  EXPECT_TRUE(is_retryable(status.error().code))
      << "in-flight damage must be retryable, not terminal";
}

TEST(FrameTest, LengthMismatchDetected) {
  Bytes payload{1, 2, 3};
  const Bytes frame = build_frame(7, payload);
  auto header = decode_header(frame.data()).value();
  Bytes short_body(frame.begin() + kHeaderSize, frame.end() - 1);
  EXPECT_FALSE(check_payload(header, short_body).ok());
}

TEST(FrameTest, EmptyPayloadFrame) {
  const Bytes frame = build_frame(9, {});
  auto header = decode_header(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().length, 0u);
  EXPECT_TRUE(check_payload(header.value(), {}).ok());
}

// Fuzz the receive path: random frames with random byte flips must always
// fail *cleanly* — a validation error, never a crash or over-read — and
// payload-only damage must surface as the retryable kCorruptFrame (that is
// what the client's fault-tolerance loop keys on).
TEST(FrameTest, FuzzedByteFlipsFailCleanly) {
  Rng rng(0xf0220605);
  int header_rejects = 0;
  int payload_rejects = 0;
  int survived_intact = 0;

  for (int iter = 0; iter < 5000; ++iter) {
    Bytes payload(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto type = static_cast<std::uint16_t>(rng.uniform_int(1, 18));
    const Bytes original = build_frame(type, payload);

    Bytes frame = original;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    bool payload_only = true;
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() & 0xfe));
      if (at < kHeaderSize) payload_only = false;
    }

    // Mimic recv_message: parse the header, then take header.length bytes
    // (bounded by what actually arrived — a reader never reads past the
    // stream), then CRC-check.
    auto header = decode_header(frame.data());
    if (!header.ok()) {
      EXPECT_TRUE(header.error().code == ErrorCode::kProtocol ||
                  header.error().code == ErrorCode::kVersion)
          << header.error().to_string();
      ++header_rejects;
      continue;
    }
    const std::size_t avail = frame.size() - kHeaderSize;
    const std::size_t take = std::min<std::size_t>(header.value().length, avail);
    Bytes body(frame.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
               frame.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + take));
    auto status = check_payload(header.value(), body);
    if (status.ok()) {
      // Flips can only cancel out by re-hitting the same byte with the same
      // mask; anything else passing validation would be a real CRC hole.
      EXPECT_EQ(frame, original) << "damaged frame passed validation";
      ++survived_intact;
      continue;
    }
    if (payload_only && take == payload.size()) {
      EXPECT_EQ(status.error().code, ErrorCode::kCorruptFrame);
      EXPECT_TRUE(is_retryable(status.error().code));
    }
    ++payload_rejects;
  }

  // The schedule must actually have exercised both rejection paths.
  EXPECT_GT(header_rejects, 0);
  EXPECT_GT(payload_rejects, 0);
  EXPECT_LT(survived_intact, 50);
}

// ---- pipelined streams ----
//
// The reactor and the mux channel no longer see one frame per connection:
// many frames share a stream, arrive glued together in one read, or split at
// arbitrary byte boundaries across reads. These tests drive the same
// incremental decode loop the reactor's drain uses (accumulate, decode every
// complete frame, keep the tail) against adversarial chunkings.

namespace {

/// One decoded frame: type + payload, plus the request id the transport's
/// demultiplexer would read from the first eight payload bytes.
struct StreamFrame {
  std::uint16_t type = 0;
  Bytes payload;
  std::uint64_t request_id = 0;
};

std::uint64_t peek_request_id(const Bytes& payload) {
  if (payload.size() < 8) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  return id;
}

/// Incremental stream decoder mirroring Reactor::drain_frames: feed bytes in
/// arbitrary chunks; complete frames pop out in order. Any validation error
/// is terminal (a real connection would be closed).
class FrameStream {
 public:
  Status feed(const std::uint8_t* data, std::size_t size, std::vector<StreamFrame>* out) {
    buf_.insert(buf_.end(), data, data + size);
    std::size_t consumed = 0;
    while (buf_.size() - consumed >= kHeaderSize) {
      auto header = decode_header(buf_.data() + consumed);
      if (!header.ok()) return header.error();
      const std::size_t total = kHeaderSize + header.value().length;
      if (buf_.size() - consumed < total) break;  // frame split across reads
      Bytes payload(buf_.begin() + static_cast<std::ptrdiff_t>(consumed + kHeaderSize),
                    buf_.begin() + static_cast<std::ptrdiff_t>(consumed + total));
      NS_RETURN_IF_ERROR(check_payload(header.value(), payload));
      StreamFrame frame;
      frame.type = header.value().type;
      frame.request_id = peek_request_id(payload);
      frame.payload = std::move(payload);
      out->push_back(std::move(frame));
      consumed += total;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
    return ok_status();
  }

 private:
  Bytes buf_;
};

}  // namespace

// Frames glued together, split mid-header, split mid-payload — every
// chunking of a valid stream must yield exactly the frames that were sent,
// in order, with their request ids intact.
TEST(FrameStreamTest, FuzzedChunkingPreservesFrames) {
  Rng rng(0x51de0a11);
  for (int iter = 0; iter < 400; ++iter) {
    const int frame_count = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<StreamFrame> sent;
    Bytes wire;
    for (int f = 0; f < frame_count; ++f) {
      StreamFrame frame;
      frame.type = static_cast<std::uint16_t>(rng.uniform_int(1, 30));
      // Interleaved request ids: each frame tags a distinct logical call.
      frame.request_id = rng.next_u64() | 1;
      frame.payload.resize(8 + static_cast<std::size_t>(rng.uniform_int(0, 96)));
      for (std::size_t i = 0; i < 8; ++i) {
        frame.payload[i] = static_cast<std::uint8_t>(frame.request_id >> (8 * i));
      }
      for (std::size_t i = 8; i < frame.payload.size(); ++i) {
        frame.payload[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      const Bytes encoded = build_frame(frame.type, frame.payload);
      wire.insert(wire.end(), encoded.begin(), encoded.end());
      sent.push_back(std::move(frame));
    }

    // Deliver the whole stream in random-sized chunks (1 byte up to several
    // frames at once), so splits land mid-header and mid-payload.
    FrameStream stream;
    std::vector<StreamFrame> got;
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          wire.size() - off, static_cast<std::size_t>(rng.uniform_int(1, 80)));
      ASSERT_TRUE(stream.feed(wire.data() + off, chunk, &got).ok());
      off += chunk;
    }

    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].request_id, sent[i].request_id) << "demux id must survive chunking";
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
  }
}

// Damage anywhere in a pipelined stream must fail cleanly at (or before) the
// damaged frame; every frame ahead of it still decodes.
TEST(FrameStreamTest, FuzzedDamageMidStreamFailsCleanly) {
  Rng rng(0xdeadf00d);
  int clean_failures = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int frame_count = static_cast<int>(rng.uniform_int(2, 8));
    Bytes wire;
    std::vector<std::size_t> starts;
    for (int f = 0; f < frame_count; ++f) {
      Bytes payload(8 + static_cast<std::size_t>(rng.uniform_int(0, 48)));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      starts.push_back(wire.size());
      const Bytes encoded =
          build_frame(static_cast<std::uint16_t>(rng.uniform_int(1, 30)), payload);
      wire.insert(wire.end(), encoded.begin(), encoded.end());
    }
    const auto at =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    wire[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() & 0xfe));
    // Index of the first frame the flip could have touched.
    std::size_t damaged = 0;
    while (damaged + 1 < starts.size() && starts[damaged + 1] <= at) ++damaged;

    FrameStream stream;
    std::vector<StreamFrame> got;
    Status status = ok_status();
    std::size_t off = 0;
    while (off < wire.size() && status.ok()) {
      const std::size_t chunk = std::min<std::size_t>(
          wire.size() - off, static_cast<std::size_t>(rng.uniform_int(1, 64)));
      status = stream.feed(wire.data() + off, chunk, &got);
      off += chunk;
    }
    if (!status.ok()) {
      ++clean_failures;
      EXPECT_TRUE(status.error().code == ErrorCode::kCorruptFrame ||
                  status.error().code == ErrorCode::kProtocol ||
                  status.error().code == ErrorCode::kVersion)
          << status.error().to_string();
      EXPECT_GE(got.size(), damaged) << "frames ahead of the damage must have decoded";
    }
    // A length-field flip can also make the decoder wait for bytes that
    // never come — a real connection would hit its idle timeout. That shows
    // here as no error and fewer frames; both outcomes are clean, but the
    // decoder must never conjure extra frames.
    EXPECT_LE(got.size(), static_cast<std::size_t>(frame_count));
  }
  EXPECT_GT(clean_failures, 100) << "most flips must be detected, not absorbed";
}

// ---- gathered payloads ----

/// The frame a gathered send writes: the header, then every piece in order.
Bytes gathered_frame(std::uint16_t type, const Payload& payload, std::size_t* pieces) {
  Bytes frame(kHeaderSize);
  encode_frame_header(type, payload, frame.data());
  *pieces = 0;
  payload.for_each_piece([&](const std::uint8_t* p, std::size_t n) {
    frame.insert(frame.end(), p, p + n);
    ++*pieces;
  });
  return frame;
}

/// A CSR matrix with `nnz` rows of one entry each: indptr holds nnz + 1
/// i32s, indices nnz i32s and values nnz f64s.
linalg::CsrMatrix diagonal_csr(std::size_t nnz, Rng& rng) {
  std::vector<std::int32_t> indptr(nnz + 1), indices(nnz);
  for (std::size_t i = 0; i <= nnz; ++i) indptr[i] = static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < nnz; ++i) indices[i] = static_cast<std::int32_t>(i % 7);
  auto csr = linalg::CsrMatrix::from_csr(nnz, 7, std::move(indptr), std::move(indices),
                                         linalg::random_vector(nnz, rng));
  EXPECT_TRUE(csr.ok());
  return std::move(csr).value();
}

// A gathered encode borrows each array of at least kBorrowMinBytes, and the
// frame it sends is byte for byte the frame of the contiguous encode: for
// every DataType, in a request and in a result, with each array kind just
// below, at and just above the borrow size.
TEST(GatherTest, GatheredFramesMatchContiguousFramesForEveryDataType) {
  Rng rng(2203);
  const std::size_t f64_at = kBorrowMinBytes / sizeof(double);
  const std::size_t i32_at = kBorrowMinBytes / sizeof(std::int32_t);
  for (const std::size_t n : {f64_at - 1, f64_at, f64_at + 1, i32_at - 2, i32_at - 1, i32_at}) {
    SCOPED_TRACE(n);
    const bool f64_borrowed = n * sizeof(double) >= kBorrowMinBytes;
    auto args = dsl::make_args(
        dsl::DataObject::from_int(-42), dsl::DataObject(2.5), dsl::DataObject(std::string("tag")),
        dsl::DataObject(linalg::random_vector(n, rng)),
        dsl::DataObject(linalg::Matrix::random(n, 1, rng)), dsl::DataObject(diagonal_csr(n, rng)));
    ASSERT_EQ(args.size(), 6u);

    proto::SolveRequest request;
    request.request_id = 0x1122334455667788ull;
    request.problem = "gather";
    request.deadline_s = 1.5;
    request.args = args;
    proto::SolveResult result;
    result.request_id = request.request_id;
    result.outputs = std::move(args);
    result.exec_seconds = 0.25;
    result.migrated_host = "10.0.0.9";

    const auto check = [&](std::uint16_t type, const auto& msg) {
      Encoder contiguous;
      msg.encode(contiguous);
      const Bytes flat = contiguous.take();
      Encoder gathering = Encoder::gathering();
      msg.encode(gathering);
      EXPECT_EQ(gathering.size(), flat.size());
      const Payload payload = gathering.take_payload();
      ASSERT_EQ(payload.size(), flat.size());

      std::size_t pieces = 0;
      EXPECT_EQ(gathered_frame(type, payload, &pieces), build_frame(type, flat));
      EXPECT_EQ(build_frame(type, payload), build_frame(type, flat));
      EXPECT_EQ(payload.flatten(), flat);
      // Below the borrow size every array is copied inline; from it on, at
      // least the f64 arrays travel as pieces of their own.
      if (f64_borrowed) {
        EXPECT_GE(pieces, 7u);
      } else if (n < i32_at - 1) {
        EXPECT_EQ(pieces, 1u);
      }
    };
    check(static_cast<std::uint16_t>(proto::MessageType::kSolveRequest), request);
    check(static_cast<std::uint16_t>(proto::MessageType::kSolveResult), result);
  }
}

// A plain Bytes is the payload with no borrowed spans: one piece, the same
// frame, and a gathering encoder with nothing to borrow yields the same.
TEST(GatherTest, PlainBytesArePayloadsOfOnePiece) {
  const std::string text = "NetSolve frame";
  const Payload payload(Bytes(text.begin(), text.end()));
  std::size_t pieces = 0;
  EXPECT_EQ(gathered_frame(42, payload, &pieces), build_frame(42, payload.flatten()));
  EXPECT_EQ(pieces, 1u);
  EXPECT_EQ(gathered_frame(42, Payload(), &pieces), build_frame(42, Bytes{}));
  EXPECT_EQ(pieces, 0u);

  Encoder enc = Encoder::gathering();
  enc.put_string(text);
  enc.put_f64_array(std::vector<double>(kBorrowMinBytes / sizeof(double) - 1, 1.0));
  EXPECT_EQ(enc.bytes().size(), enc.size()) << "an array below the borrow size was borrowed";
}

// The decoder builds each array straight from the payload bytes, which can
// sit at any offset: every element is loaded whole and bit-exact (NaN
// payloads, signed zeros, subnormals), with no misaligned loads. The UBSan
// lane runs this.
TEST(GatherTest, ArraysAtEveryByteOffsetDecodeBitExactly) {
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.5,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::max(),
                                 std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL}),
                                 std::bit_cast<double>(std::uint64_t{0xfff0000000000001ULL})};
  Rng rng(2204);
  const auto bulk = linalg::random_vector(kBorrowMinBytes / sizeof(double) + 3, rng);
  doubles.insert(doubles.end(), bulk.begin(), bulk.end());
  const std::vector<std::int32_t> ints = {0, -1, std::numeric_limits<std::int32_t>::min(),
                                          std::numeric_limits<std::int32_t>::max(), 0x01020304};

  for (std::size_t offset = 0; offset < 16; ++offset) {
    SCOPED_TRACE(offset);
    Encoder enc;
    for (std::size_t i = 0; i < offset; ++i) enc.put_u8(0xcc);
    enc.put_f64_array(doubles);
    enc.put_u8(0x5a);  // shifts the i32 array off the f64 array's alignment
    enc.put_i32_array(ints);
    const Bytes bytes = enc.take();

    Decoder dec(bytes.data() + offset, bytes.size() - offset);
    auto got_doubles = dec.get_f64_array();
    ASSERT_TRUE(got_doubles.ok());
    ASSERT_EQ(got_doubles.value().size(), doubles.size());
    EXPECT_EQ(std::memcmp(got_doubles.value().data(), doubles.data(),
                          doubles.size() * sizeof(double)),
              0);
    ASSERT_TRUE(dec.get_u8().ok());
    auto got_ints = dec.get_i32_array();
    ASSERT_TRUE(got_ints.ok());
    EXPECT_EQ(got_ints.value(), ints);
    EXPECT_TRUE(dec.expect_exhausted().ok());
  }
}

}  // namespace
}  // namespace ns::serial

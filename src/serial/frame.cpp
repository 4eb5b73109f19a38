#include "serial/frame.hpp"

#include "serial/crc32.hpp"

namespace ns::serial {

// The CRC covers everything the magic/version checks don't already pin
// down: the type and length fields (little-endian, as on the wire) plus the
// payload.
std::uint32_t frame_crc_begin(std::uint16_t type, std::uint32_t length) {
  const std::uint8_t meta[6] = {
      static_cast<std::uint8_t>(type),         static_cast<std::uint8_t>(type >> 8),
      static_cast<std::uint8_t>(length),       static_cast<std::uint8_t>(length >> 8),
      static_cast<std::uint8_t>(length >> 16), static_cast<std::uint8_t>(length >> 24)};
  return crc32_update(kCrc32Init, meta, sizeof(meta));
}

namespace {

FrameHeader payload_header(std::uint16_t type, const Payload& payload) {
  FrameHeader header;
  header.type = type;
  header.length = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = frame_crc_begin(type, header.length);
  payload.for_each_piece(
      [&crc](const std::uint8_t* p, std::size_t n) { crc = crc32_update(crc, p, n); });
  header.crc = crc32_final(crc);
  return header;
}

}  // namespace

void encode_header(const FrameHeader& header, std::uint8_t out[kHeaderSize]) {
  auto put32 = [&out](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  auto put16 = [&out](std::size_t at, std::uint16_t v) {
    for (std::size_t i = 0; i < 2; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(0, kFrameMagic);
  put16(4, header.version);
  put16(6, header.type);
  put32(8, header.length);
  put32(12, header.crc);
}

Result<FrameHeader> decode_header(const std::uint8_t data[kHeaderSize],
                                  std::size_t max_payload) {
  auto get32 = [&data](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[at + i]) << (8 * i);
    return v;
  };
  auto get16 = [&data](std::size_t at) {
    return static_cast<std::uint16_t>(data[at] | (data[at + 1] << 8));
  };
  if (get32(0) != kFrameMagic) {
    return make_error(ErrorCode::kProtocol, "bad frame magic");
  }
  FrameHeader header;
  header.version = get16(4);
  header.type = get16(6);
  header.length = get32(8);
  header.crc = get32(12);
  if (header.version != kProtocolVersion) {
    return make_error(ErrorCode::kVersion,
                      "protocol version " + std::to_string(header.version) +
                          " != " + std::to_string(kProtocolVersion));
  }
  if (header.length > kMaxPayload || header.length > max_payload) {
    return make_error(ErrorCode::kProtocol, "frame payload too large");
  }
  return header;
}

Bytes build_frame(std::uint16_t type, const Payload& payload) {
  Bytes frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.resize(kHeaderSize);
  encode_header(payload_header(type, payload), frame.data());
  payload.for_each_piece(
      [&frame](const std::uint8_t* p, std::size_t n) { frame.insert(frame.end(), p, p + n); });
  return frame;
}

void encode_frame_header(std::uint16_t type, const Payload& payload,
                         std::uint8_t out[kHeaderSize]) {
  encode_header(payload_header(type, payload), out);
}

Status check_payload(const FrameHeader& header, const Bytes& payload) {
  if (payload.size() != header.length) {
    return make_error(ErrorCode::kProtocol, "payload length mismatch");
  }
  return check_frame_crc(header, crc32_update(frame_crc_begin(header.type, header.length),
                                              payload.data(), payload.size()));
}

Status check_frame_crc(const FrameHeader& header, std::uint32_t running) {
  if (crc32_final(running) != header.crc) {
    // Retryable: the header framed correctly, so this is in-flight damage
    // (or an injected corruption fault), not a framing bug.
    return make_error(ErrorCode::kCorruptFrame, "frame CRC mismatch");
  }
  return ok_status();
}

}  // namespace ns::serial

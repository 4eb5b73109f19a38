// Wire frame: the unit of transport between NetSolve processes.
//
// Layout (little-endian):
//   magic   u32   'NSV1' (0x3156534e)
//   version u16   protocol version
//   type    u16   message type tag (ns::proto::MessageType)
//   length  u32   payload byte count
//   crc     u32   CRC-32 over type + length + payload
//   payload u8[length]
//
// The header is fixed-size so a reader can pull exactly kHeaderSize bytes,
// validate, then pull the payload. CRC validation catches corruption and
// (more importantly in practice) framing bugs. The CRC covers the type and
// length fields as well as the payload: magic and version are checked
// explicitly on decode, so without this a flipped type byte would silently
// re-route an otherwise-valid frame to a different handler (found by the
// frame fuzz test).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "serial/codec.hpp"

namespace ns::serial {

inline constexpr std::uint32_t kFrameMagic = 0x3156534eu;  // "NSV1"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kMaxPayload = 1u << 30;  // 1 GiB

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};

/// Serialize a header into exactly kHeaderSize bytes.
void encode_header(const FrameHeader& header, std::uint8_t out[kHeaderSize]);

/// Parse and validate a header (magic + version + length bound). The payload
/// bound is per-role: an agent serving metadata-sized requests caps frames at
/// ~1 MiB while a compute server keeps the full kMaxPayload for matrix blobs
/// — rejecting an oversized claim here, before any payload buffering, is what
/// keeps a hostile 4-GiB-length header from costing an allocation.
Result<FrameHeader> decode_header(const std::uint8_t data[kHeaderSize],
                                  std::size_t max_payload = kMaxPayload);

/// Build a complete frame (header + payload) for a message type. Only paths
/// that must edit or pace the frame bytes (fault injection, link shaping)
/// need this copy.
Bytes build_frame(std::uint16_t type, const Payload& payload);

/// Write just the kHeaderSize header (with the CRC folded over type +
/// length + each payload piece in order) for a frame whose payload travels
/// as separate buffers — both send paths (net::send_message and the
/// reactor) send the header and the payload's pieces as one iovec list
/// instead of assembling a contiguous frame copy.
void encode_frame_header(std::uint16_t type, const Payload& payload,
                         std::uint8_t out[kHeaderSize]);

/// Validate a payload against its header's CRC.
Status check_payload(const FrameHeader& header, const Bytes& payload);

/// Running frame CRC over just the type and length fields. A receiver that
/// fills a payload piece by piece folds each piece in with crc32_update as
/// it arrives and checks the total with check_frame_crc, so a completed
/// frame needs no second pass over its body.
std::uint32_t frame_crc_begin(std::uint16_t type, std::uint32_t length);

/// Check a running CRC from frame_crc_begin (plus the folded payload)
/// against the header; fails like check_payload on a mismatch.
Status check_frame_crc(const FrameHeader& header, std::uint32_t running);

}  // namespace ns::serial

// Wire format for monitor-layer messages.
//
// The in-process runtimes pass payload objects directly; a deployment
// across real machines needs tokens and termination signals on the wire.
// This module defines a compact, versioned, endian-stable binary encoding
// with full round-trip fidelity, plus defensive decoding (truncated or
// corrupt buffers yield errors, never UB).
//
// The primitive codec (WireWriter / WireReader) is public: the reliable
// channel and the checkpoint module reuse it so every durable byte in the
// system shares one bounds-checked little-endian encoding.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "decmon/monitor/token.hpp"

namespace decmon {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard ceiling on per-process array widths a decoder will accept when the
/// caller does not pass the session's actual process count.
inline constexpr std::size_t kMaxWireProcesses = 4096;

/// Little-endian primitive encoder appending into a caller-owned buffer, so
/// pooled buffers can be refilled without reallocating (the reliable
/// channel's clean path depends on this).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& buf) : buf_(buf) {}

  void u8(std::uint8_t x) { buf_.push_back(x); }
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  /// Encoded LEB128 length of `x` without emitting anything: ceil of the
  /// significant bit count over the 7 value bits per byte (x = 0 is one
  /// byte, covered by the `| 1`).
  static std::size_t var_size(std::uint64_t x) {
    return static_cast<std::size_t>((std::bit_width(x | 1) + 6) / 7);
  }
  /// LEB128 unsigned varint: 7 value bits per byte, high bit = continue.
  void var(std::uint64_t x) {
    do {
      std::uint8_t b = static_cast<std::uint8_t>(x & 0x7F);
      x >>= 7;
      if (x != 0) b |= 0x80;
      u8(b);
    } while (x != 0);
  }
  /// Zigzag-mapped signed varint (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so
  /// small deltas of either sign stay one byte.
  void zig(std::int64_t x) {
    const auto ux = static_cast<std::uint64_t>(x);
    var((ux << 1) ^ (x < 0 ? ~std::uint64_t{0} : std::uint64_t{0}));
  }
  void vc(const VectorClock& clock) {
    u32(static_cast<std::uint32_t>(clock.size()));
    for (std::size_t i = 0; i < clock.size(); ++i) u32(clock[i]);
  }
  /// Append `len` pre-encoded bytes verbatim (envelope payload embedding).
  void raw(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

 private:
  std::vector<std::uint8_t>& buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Every
/// truncation throws WireError; no read is ever out of bounds.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    }
    return x;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    }
    return x;
  }
  /// LEB128 unsigned varint. Rejects encodings that overflow 64 bits;
  /// at most 10 bytes are consumed.
  std::uint64_t var() {
    std::uint64_t x = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = u8();
      if (shift == 63 && (b & 0xFE) != 0) throw WireError("varint overflow");
      x |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return x;
      shift += 7;
      if (shift > 63) throw WireError("varint overflow");
    }
  }
  std::int64_t zig() {
    const std::uint64_t x = var();
    return static_cast<std::int64_t>((x >> 1) ^ (std::uint64_t{0} - (x & 1)));
  }
  VectorClock vc(std::size_t max_width) {
    const std::uint32_t n = u32();
    if (n > max_width) throw WireError("vector clock too wide");
    VectorClock clock(n);
    for (std::uint32_t i = 0; i < n; ++i) clock[i] = u32();
    return clock;
  }
  void done() const {
    if (pos_ != buf_.size()) throw WireError("trailing bytes");
  }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t k) const {
    // pos_ <= buf_.size() always holds, so the subtraction cannot wrap;
    // comparing this way keeps a huge k from overflowing pos_ + k.
    if (k > buf_.size() - pos_) throw WireError("truncated buffer");
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// Kind bytes. A monitor message is always a v2 frame (`02 03`): a unit
/// count, a base clock, then units, each led by its kind (kToken,
/// kTermination or kFloor). A bare token, termination or floor travels as
/// a 1-unit frame. kEnvelope (`02 04`) is the reliable-channel envelope: a
/// seq/ack header around an embedded frame encoding, so a channel stacked
/// over a socket transport can serialize its protocol messages.
enum class WireKind : std::uint8_t {
  kToken = 1,
  kTermination = 2,
  kFrame = 3,
  kEnvelope = 4,
  kFloor = 5,  ///< streaming-GC history floor gossip
};

/// Headerless token body (the frame-unit layout with an empty base clock:
/// varints, no deltas), for embedding a token inside a larger blob
/// (monitor checkpoints). `max_width` bounds every decoded width.
void write_token_body(WireWriter& w, const Token& token);
Token read_token_body(WireReader& r, std::size_t max_width);

/// Serialize a monitor-layer payload into `out`, appending: a frame as
/// itself, a bare token / termination / floor as a 1-unit frame, a channel
/// envelope as its header plus the embedded encoding. Throws WireError for
/// payload tags that have no wire form (transport-internal payloads never
/// cross a process boundary).
void encode_payload_into(const NetPayload& payload,
                         std::vector<std::uint8_t>& out);

/// Decode a buffer produced by encode_payload_into: a PayloadFrame (also for
/// payloads encoded bare) or a ChannelEnvelope. Throws WireError on
/// truncation, trailing bytes, any other version or kind, or any width
/// above `max_width` -- pass the session's process count so a corrupt or
/// hostile length field cannot force a large allocation before validation
/// fails. A decoded envelope carries its payload as raw `bytes` only (never
/// a reconstructed `inner` object) -- the channel's receive path decodes
/// those bytes itself, exactly as it does for retransmissions.
std::unique_ptr<NetPayload> decode_payload(
    const std::vector<std::uint8_t>& buffer,
    std::size_t max_width = kMaxWireProcesses);

/// Size-only pass over a frame: the bytes encode_payload_into would append
/// for it (header + base clock included), without encoding. This is the
/// bytes-on-wire accounting hook: the monitor calls it once per flushed
/// frame. It reads and fills the size caches of entries whose token's
/// parent_vc is the frame base (TransitionEntry::cached_slot_bytes), so it
/// must not run concurrently with another use of the same frame.
std::size_t frame_wire_size(const PayloadFrame& frame);

/// CRC-32 (reflected, polynomial 0xEDB88320 -- the zlib/PNG variant) used to
/// seal checkpoint and channel-state blobs against corruption.
std::uint32_t wire_crc32(const std::uint8_t* data, std::size_t len);

}  // namespace decmon

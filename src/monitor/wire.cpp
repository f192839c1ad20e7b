#include "decmon/monitor/wire.hpp"

#include <array>

#include <limits>

#include "decmon/distributed/reliable_channel.hpp"

namespace decmon {
namespace {

constexpr std::uint8_t kVersion = 2;
constexpr std::uint32_t kMaxFrameUnits = 65536;

// ---------------------------------------------------------------------------
// The one layout: a frame of units. Integers travel as LEB128 varints,
// clocks and cuts as zigzag deltas against a frame-level base clock (the
// first token unit's parent_vc -- tokens in one batch walk the same
// neighborhood, so deltas are small). Per-entry arrays delta against the
// entry's own cut.
// ---------------------------------------------------------------------------

// Clamp helpers: every delta-decoded component must land back in u32.
std::uint32_t checked_u32(std::int64_t v, const char* what) {
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError(what);
  }
  return static_cast<std::uint32_t>(v);
}

std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  if (v > std::numeric_limits<std::uint32_t>::max()) throw WireError(what);
  return static_cast<std::uint32_t>(v);
}

// Target / parent process indexes travel zigzagged (-1 = unset), bounded by
// the widest width any decoder accepts.
int read_process(WireReader& r) {
  const std::int64_t v = r.zig();
  if (v < -1 || v > static_cast<std::int64_t>(kMaxWireProcesses)) {
    throw WireError("bad target process");
  }
  return static_cast<int>(v);
}

void write_clock(WireWriter& w, const VectorClock& clock,
                 const VectorClock& base) {
  w.var(clock.size());
  if (clock.size() == base.size()) {
    for (std::size_t i = 0; i < clock.size(); ++i) {
      w.zig(static_cast<std::int64_t>(clock[i]) -
            static_cast<std::int64_t>(base[i]));
    }
  } else {
    for (std::size_t i = 0; i < clock.size(); ++i) w.var(clock[i]);
  }
}

VectorClock read_clock(WireReader& r, std::size_t max_width,
                       const VectorClock& base) {
  const std::uint64_t n = r.var();
  if (n > max_width) throw WireError("vector clock too wide");
  VectorClock clock(static_cast<std::size_t>(n));
  if (n == base.size()) {
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = checked_u32(static_cast<std::int64_t>(base[i]) + r.zig(),
                             "clock delta out of range");
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      clock[i] = checked_u32(r.var(), "clock component out of range");
    }
  }
  return clock;
}

void write_entry(WireWriter& w, const TransitionEntry& e,
                 const VectorClock& base) {
  const std::size_t n = e.width();
  w.zig(e.transition_id);
  w.var(n);
  if (n == base.size()) {
    for (std::size_t j = 0; j < n; ++j) {
      w.zig(static_cast<std::int64_t>(e.cut(j)) -
            static_cast<std::int64_t>(base[j]));
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) w.var(e.cut(j));
  }
  // depend tracks the cut closely (it is the cut rolled back through one
  // frontier event), so delta it against the entry's own cut.
  for (std::size_t j = 0; j < n; ++j) {
    w.zig(static_cast<std::int64_t>(e.depend(j)) -
          static_cast<std::int64_t>(e.cut(j)));
  }
  for (std::size_t j = 0; j < n; ++j) w.var(e.gstate(j));
  for (std::size_t j = 0; j < n; ++j) {
    w.u8(static_cast<std::uint8_t>(e.conj(j)));
  }
  w.u8(static_cast<std::uint8_t>(e.eval));
  w.zig(e.next_target_process);
  w.var(e.next_target_event);
  w.u8(e.loop_certified ? 1 : 0);
  if (e.loop_certified) {
    for (std::size_t j = 0; j < n; ++j) {
      w.zig(static_cast<std::int64_t>(e.loop_cut(j)) -
            static_cast<std::int64_t>(e.cut(j)));
    }
    for (std::size_t j = 0; j < n; ++j) w.var(e.loop_gstate(j));
  }
}

TransitionEntry read_entry(WireReader& r, std::size_t max_width,
                           const VectorClock& base) {
  TransitionEntry e;
  const std::int64_t tid = r.zig();
  if (tid < std::numeric_limits<int>::min() ||
      tid > std::numeric_limits<int>::max()) {
    throw WireError("bad transition id");
  }
  e.transition_id = static_cast<int>(tid);
  const std::uint64_t n = r.var();
  if (n > max_width) throw WireError("entry too wide");
  e.set_width(static_cast<std::size_t>(n));
  if (n == base.size()) {
    for (std::size_t j = 0; j < n; ++j) {
      e.cut(j) = checked_u32(static_cast<std::int64_t>(base[j]) + r.zig(),
                             "cut delta out of range");
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      e.cut(j) = checked_u32(r.var(), "cut component out of range");
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    e.depend(j) = checked_u32(static_cast<std::int64_t>(e.cut(j)) + r.zig(),
                              "depend delta out of range");
  }
  for (std::size_t j = 0; j < n; ++j) e.gstate(j) = r.var();
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint8_t x = r.u8();
    if (x > 2) throw WireError("bad conjunct eval");
    e.conj(j) = static_cast<ConjunctEval>(x);
  }
  const std::uint8_t eval = r.u8();
  if (eval > 2) throw WireError("bad entry eval");
  e.eval = static_cast<EntryEval>(eval);
  e.next_target_process = read_process(r);
  e.next_target_event = checked_u32(r.var(), "bad target event");
  e.loop_certified = r.u8() != 0;
  if (e.loop_certified) {
    for (std::size_t j = 0; j < n; ++j) {
      e.loop_cut(j) = checked_u32(
          static_cast<std::int64_t>(e.cut(j)) + r.zig(),
          "loop cut delta out of range");
    }
    for (std::size_t j = 0; j < n; ++j) e.loop_gstate(j) = r.var();
  }
  return e;
}

void write_token(WireWriter& w, const Token& t, const VectorClock& base) {
  w.var(t.token_id);
  w.zig(t.parent);
  w.var(t.parent_sn);
  write_clock(w, t.parent_vc, base);
  w.zig(t.next_target_process);
  w.var(t.next_target_event);
  w.var(static_cast<std::uint64_t>(t.hops));
  w.var(t.entries.size());
  for (const TransitionEntry& e : t.entries) write_entry(w, e, base);
}

Token read_token(WireReader& r, std::size_t max_width,
                 const VectorClock& base) {
  Token t;
  t.token_id = r.var();
  t.parent = read_process(r);
  t.parent_sn = checked_u32(r.var(), "bad parent sn");
  t.parent_vc = read_clock(r, max_width, base);
  t.next_target_process = read_process(r);
  t.next_target_event = checked_u32(r.var(), "bad target event");
  const std::uint64_t hops = r.var();
  if (hops > std::numeric_limits<int>::max()) throw WireError("bad hop count");
  t.hops = static_cast<int>(hops);
  const std::uint64_t n = r.var();
  if (n > kMaxFrameUnits) throw WireError("too many entries");
  t.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    t.entries.push_back(read_entry(r, max_width, base));
  }
  return t;
}

const VectorClock kEmptyBase{};

// The frame base clock: the first token unit's parent_vc (empty when the
// frame holds no token). Encoders and decoders derive it the same way, so
// it is written once in the frame header.
const VectorClock& unit_base(const NetPayload& unit) {
  return unit.tag == TokenMessage::kTag
             ? static_cast<const TokenMessage&>(unit).token.parent_vc
             : kEmptyBase;
}

const VectorClock& frame_base(const PayloadFrame& frame) {
  for (const auto& unit : frame.units) {
    if (unit && unit->tag == TokenMessage::kTag) return unit_base(*unit);
  }
  return kEmptyBase;
}

bool is_frame_unit(const NetPayload& payload) {
  return payload.tag == TokenMessage::kTag ||
         payload.tag == TerminationMessage::kTag ||
         payload.tag == HistoryFloorMessage::kTag;
}

void write_frame_unit(WireWriter& w, const NetPayload& unit,
                      const VectorClock& base) {
  if (unit.tag == TokenMessage::kTag) {
    w.u8(static_cast<std::uint8_t>(WireKind::kToken));
    write_token(w, static_cast<const TokenMessage&>(unit).token, base);
  } else if (unit.tag == TerminationMessage::kTag) {
    const auto& msg = static_cast<const TerminationMessage&>(unit);
    w.u8(static_cast<std::uint8_t>(WireKind::kTermination));
    w.var(static_cast<std::uint64_t>(msg.process));
    w.var(msg.last_sn);
  } else if (unit.tag == HistoryFloorMessage::kTag) {
    const auto& msg = static_cast<const HistoryFloorMessage&>(unit);
    w.u8(static_cast<std::uint8_t>(WireKind::kFloor));
    w.var(static_cast<std::uint64_t>(msg.process));
    w.var(msg.floor);
    w.var(msg.epoch);
  } else {
    // Nested frames and transport-internal payloads never appear inside a
    // monitor-built frame.
    throw WireError("frame unit tag has no wire form");
  }
}

std::unique_ptr<NetPayload> read_frame_unit(WireReader& r,
                                            std::size_t max_width,
                                            const VectorClock& base) {
  const std::uint8_t tag = r.u8();
  if (tag == static_cast<std::uint8_t>(WireKind::kToken)) {
    auto msg = std::make_unique<TokenMessage>();
    msg->token = read_token(r, max_width, base);
    return msg;
  }
  if (tag == static_cast<std::uint8_t>(WireKind::kTermination)) {
    auto msg = std::make_unique<TerminationMessage>();
    const std::uint64_t process = r.var();
    if (process > kMaxWireProcesses) throw WireError("bad target process");
    msg->process = static_cast<int>(process);
    msg->last_sn = checked_u32(r.var(), "bad last sn");
    return msg;
  }
  if (tag == static_cast<std::uint8_t>(WireKind::kFloor)) {
    auto msg = std::make_unique<HistoryFloorMessage>();
    const std::uint64_t process = r.var();
    if (process > kMaxWireProcesses) throw WireError("bad target process");
    msg->process = static_cast<int>(process);
    msg->floor = checked_u32(r.var(), "bad floor");
    msg->epoch = checked_u32(r.var(), "bad floor epoch");
    return msg;
  }
  throw WireError("unknown frame unit kind");
}

void write_frame_header(WireWriter& w, std::size_t units,
                        const VectorClock& base) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(WireKind::kFrame));
  w.var(units);
  w.var(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) w.var(base[i]);
}

std::unique_ptr<PayloadFrame> read_frame(WireReader& r,
                                         std::size_t max_width) {
  const std::uint64_t n_units = r.var();
  if (n_units > kMaxFrameUnits) throw WireError("too many frame units");
  const std::uint64_t base_n = r.var();
  if (base_n > max_width) throw WireError("vector clock too wide");
  VectorClock base(static_cast<std::size_t>(base_n));
  for (std::size_t i = 0; i < base_n; ++i) {
    base[i] = checked_u32(r.var(), "clock component out of range");
  }
  auto frame = std::make_unique<PayloadFrame>();
  frame->units.reserve(static_cast<std::size_t>(n_units));
  for (std::uint64_t i = 0; i < n_units; ++i) {
    frame->units.push_back(read_frame_unit(r, max_width, base));
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Size-only walk of the frame layout. frame_wire_size runs on every
// flush (the accounting hot path). These mirror the writers above
// field-for-field but visit each ProcSlot exactly once and emit nothing;
// WireV2.StampMatchesEncodedSize pins them to the real encoder, so they
// cannot drift silently.
// ---------------------------------------------------------------------------

std::size_t zig_size(std::int64_t x) {
  const auto ux = static_cast<std::uint64_t>(x);
  return WireWriter::var_size((ux << 1) ^
                              (x < 0 ? ~std::uint64_t{0} : std::uint64_t{0}));
}

std::size_t entry_wire_size(const TransitionEntry& e,
                            const VectorClock& base) {
  const std::size_t n = e.width();
  const bool delta = n == base.size();
  const TransitionEntry::ProcSlot* s = e.slots();
  std::size_t size = zig_size(e.transition_id) + WireWriter::var_size(n);
  for (std::size_t j = 0; j < n; ++j) {
    size += delta ? zig_size(static_cast<std::int64_t>(s[j].cut) -
                             static_cast<std::int64_t>(base[j]))
                  : WireWriter::var_size(s[j].cut);
    size += zig_size(static_cast<std::int64_t>(s[j].depend) -
                     static_cast<std::int64_t>(s[j].cut));
    size += WireWriter::var_size(s[j].gstate);
    size += 1;  // conj
  }
  size += 1;  // eval
  size += zig_size(e.next_target_process);
  size += WireWriter::var_size(e.next_target_event);
  size += 1;  // loop_certified
  if (e.loop_certified) {
    for (std::size_t j = 0; j < n; ++j) {
      size += zig_size(static_cast<std::int64_t>(s[j].loop_cut) -
                       static_cast<std::int64_t>(s[j].cut));
      size += WireWriter::var_size(s[j].loop_gstate);
    }
  }
  return size;
}

std::size_t clock_wire_size(const VectorClock& clock,
                            const VectorClock& base) {
  std::size_t size = WireWriter::var_size(clock.size());
  if (clock.size() == base.size()) {
    for (std::size_t i = 0; i < clock.size(); ++i) {
      size += zig_size(static_cast<std::int64_t>(clock[i]) -
                       static_cast<std::int64_t>(base[i]));
    }
  } else {
    for (std::size_t i = 0; i < clock.size(); ++i) {
      size += WireWriter::var_size(clock[i]);
    }
  }
  return size;
}

std::size_t frame_unit_wire_size(const NetPayload& unit,
                                 const VectorClock& base) {
  if (unit.tag == TokenMessage::kTag) {
    const Token& t = static_cast<const TokenMessage&>(unit).token;
    std::size_t size = 1;  // kind tag
    size += WireWriter::var_size(t.token_id);
    size += zig_size(t.parent);
    size += WireWriter::var_size(t.parent_sn);
    size += clock_wire_size(t.parent_vc, base);
    size += zig_size(t.next_target_process);
    size += WireWriter::var_size(t.next_target_event);
    size += WireWriter::var_size(static_cast<std::uint64_t>(t.hops));
    size += WireWriter::var_size(t.entries.size());
    for (const TransitionEntry& e : t.entries) {
      size += entry_wire_size(e, base);
    }
    return size;
  }
  if (unit.tag == TerminationMessage::kTag) {
    const auto& msg = static_cast<const TerminationMessage&>(unit);
    return 1 + WireWriter::var_size(static_cast<std::uint64_t>(msg.process)) +
           WireWriter::var_size(msg.last_sn);
  }
  if (unit.tag == HistoryFloorMessage::kTag) {
    const auto& msg = static_cast<const HistoryFloorMessage&>(unit);
    return 1 + WireWriter::var_size(static_cast<std::uint64_t>(msg.process)) +
           WireWriter::var_size(msg.floor) + WireWriter::var_size(msg.epoch);
  }
  throw WireError("frame unit tag has no wire form");
}

std::size_t frame_header_wire_size(std::size_t units,
                                   const VectorClock& base) {
  std::size_t size = 2 + WireWriter::var_size(units) +
                     WireWriter::var_size(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    size += WireWriter::var_size(base[i]);
  }
  return size;
}

void encode_payload_impl(WireWriter& w, const NetPayload& payload) {
  if (payload.tag == PayloadFrame::kTag) {
    const auto& frame = static_cast<const PayloadFrame&>(payload);
    const VectorClock& base = frame_base(frame);
    write_frame_header(w, frame.units.size(), base);
    for (const auto& unit : frame.units) {
      if (!unit) throw WireError("null frame unit");
      write_frame_unit(w, *unit, base);
    }
  } else if (is_frame_unit(payload)) {
    const VectorClock& base = unit_base(payload);
    write_frame_header(w, 1, base);
    write_frame_unit(w, payload, base);
  } else if (payload.tag == ChannelEnvelope::kTag) {
    // Reliable-channel envelope: seq/ack header, then the embedded payload
    // encoding as the remainder of the buffer (records are externally
    // framed, so no inner length prefix is needed). First transmissions
    // carry the payload object; retransmissions carry the retained bytes.
    const auto& env = static_cast<const ChannelEnvelope&>(payload);
    w.u8(kVersion);
    w.u8(static_cast<std::uint8_t>(WireKind::kEnvelope));
    w.var(env.seq);
    w.var(env.ack);
    if (env.inner) {
      w.u8(1);
      encode_payload_impl(w, *env.inner);
    } else if (!env.bytes.empty()) {
      w.u8(1);
      w.raw(env.bytes.data(), env.bytes.size());
    } else {
      w.u8(0);  // pure ack
    }
  } else {
    throw WireError("payload tag has no wire form");
  }
}

}  // namespace

void write_token_body(WireWriter& w, const Token& token) {
  write_token(w, token, kEmptyBase);
}

Token read_token_body(WireReader& r, std::size_t max_width) {
  return read_token(r, max_width, kEmptyBase);
}

void encode_payload_into(const NetPayload& payload,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  encode_payload_impl(w, payload);
}

std::size_t frame_wire_size(const PayloadFrame& frame) {
  const VectorClock& base = frame_base(frame);
  std::size_t total = frame_header_wire_size(frame.units.size(), base);
  for (const auto& unit : frame.units) {
    if (!unit) throw WireError("null frame unit");
    total += frame_unit_wire_size(*unit, base);
  }
  return total;
}

std::unique_ptr<NetPayload> decode_payload(
    const std::vector<std::uint8_t>& buffer, std::size_t max_width) {
  WireReader r(buffer);
  if (r.u8() != kVersion) throw WireError("unsupported wire version");
  const std::uint8_t kind = r.u8();
  if (kind == static_cast<std::uint8_t>(WireKind::kFrame)) {
    std::unique_ptr<PayloadFrame> frame = read_frame(r, max_width);
    r.done();
    return frame;
  }
  if (kind == static_cast<std::uint8_t>(WireKind::kEnvelope)) {
    auto env = std::make_unique<ChannelEnvelope>();
    env->seq = r.var();
    env->ack = r.var();
    const bool has_payload = r.u8() != 0;
    if (has_payload) {
      if (r.remaining() == 0) throw WireError("empty envelope payload");
      // The embedded encoding stays opaque bytes: the channel's receive
      // path decodes them (and validates widths) exactly as it does for
      // retransmissions.
      env->bytes.assign(
          buffer.begin() + static_cast<std::ptrdiff_t>(r.position()),
          buffer.end());
    } else {
      r.done();
    }
    return env;
  }
  throw WireError("unexpected message kind");
}

std::uint32_t wire_crc32(const std::uint8_t* data, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace decmon

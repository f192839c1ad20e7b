// Wire v2 (batched frames): seeded property round-trips across varint and
// clock-width boundaries, exact accounting (the size walk must agree with
// the real encoder byte for byte), and the same exhaustive corruption
// discipline the checkpoint codec gets -- truncation at every length, a
// byte flip at every position.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "decmon/distributed/message.hpp"
#include "decmon/distributed/reliable_channel.hpp"
#include "decmon/monitor/wire.hpp"

namespace decmon {
namespace {

// Values straddling every LEB128 length step (1/2/../10 bytes) plus the
// u32 ceiling the clock components live under.
const std::uint64_t kVarintEdges[] = {
    0,
    1,
    0x7F,
    0x80,
    0x3FFF,
    0x4000,
    0x1FFFFF,
    0x200000,
    0xFFFFFFF,
    0x10000000,
    0xFFFFFFFFull,
    0x7FFFFFFFFFFFFFFFull,
    0xFFFFFFFFFFFFFFFFull,
};

TEST(WireV2, VarintEdgeValuesRoundTrip) {
  for (std::uint64_t x : kVarintEdges) {
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    w.var(x);
    EXPECT_EQ(buf.size(), WireWriter::var_size(x)) << x;
    WireReader r(buf);
    EXPECT_EQ(r.var(), x);
    r.done();
  }
}

TEST(WireV2, ZigzagEdgeValuesRoundTrip) {
  std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -65, 64};
  for (std::uint64_t x : kVarintEdges) {
    values.push_back(static_cast<std::int64_t>(x));
    values.push_back(-static_cast<std::int64_t>(x >> 1));
  }
  for (std::int64_t x : values) {
    std::vector<std::uint8_t> buf;
    WireWriter w(buf);
    w.zig(x);
    WireReader r(buf);
    EXPECT_EQ(r.zig(), x) << x;
    r.done();
  }
}

TEST(WireV2, RejectsOverlongVarint) {
  // 10 continuation bytes followed by a terminator with high value bits set
  // would decode to more than 64 bits.
  std::vector<std::uint8_t> buf(10, 0xFF);
  buf.push_back(0x03);
  WireReader r(buf);
  EXPECT_THROW(r.var(), WireError);
}

// ---------------------------------------------------------------------------
// Frame round-trips.
// ---------------------------------------------------------------------------

Token random_token(std::mt19937_64& rng, std::size_t width) {
  auto edge = [&rng]() -> std::uint32_t {
    const std::uint64_t raw =
        kVarintEdges[rng() % (sizeof kVarintEdges / sizeof *kVarintEdges)];
    return static_cast<std::uint32_t>(raw);  // clocks are u32 on the wire
  };
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng() % width);
  t.parent_sn = edge();
  t.parent_vc = VectorClock(width);
  for (std::size_t j = 0; j < width; ++j) t.parent_vc[j] = edge();
  t.next_target_process = static_cast<int>(rng() % (width + 1)) - 1;
  t.next_target_event = edge();
  t.hops = static_cast<int>(rng() % 1000);
  const std::size_t entries = rng() % 4;
  for (std::size_t i = 0; i < entries; ++i) {
    TransitionEntry e;
    e.transition_id = static_cast<int>(rng() % 64) - 1;
    // Mixed widths exercise both the delta-vs-base and raw-varint clock
    // paths inside one frame.
    e.set_width(rng() % 2 == 0 ? width : width + 1);
    for (std::size_t j = 0; j < e.width(); ++j) {
      e.cut(j) = edge();
      e.depend(j) = edge();
      e.gstate(j) = rng();
      e.conj(j) = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process = static_cast<int>(rng() % (width + 1)) - 1;
    e.next_target_event = edge();
    e.loop_certified = rng() % 2 == 0;
    if (e.loop_certified) {
      for (std::size_t j = 0; j < e.width(); ++j) {
        e.loop_cut(j) = edge();
        e.loop_gstate(j) = rng();
      }
    }
    t.entries.push_back(std::move(e));
  }
  return t;
}

std::unique_ptr<PayloadFrame> random_frame(std::mt19937_64& rng,
                                           std::size_t units,
                                           std::size_t width) {
  auto frame = std::make_unique<PayloadFrame>();
  for (std::size_t i = 0; i < units; ++i) {
    if (rng() % 4 == 0) {
      auto term = std::make_unique<TerminationMessage>();
      term->process = static_cast<int>(rng() % width);
      term->last_sn = static_cast<std::uint32_t>(rng());
      frame->units.push_back(std::move(term));
    } else {
      auto msg = std::make_unique<TokenMessage>();
      msg->token = random_token(rng, width);
      frame->units.push_back(std::move(msg));
    }
  }
  return frame;
}

void expect_equal_token(const Token& a, const Token& b) {
  EXPECT_EQ(a.token_id, b.token_id);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.parent_sn, b.parent_sn);
  EXPECT_EQ(a.parent_vc, b.parent_vc);
  EXPECT_EQ(a.next_target_process, b.next_target_process);
  EXPECT_EQ(a.next_target_event, b.next_target_event);
  EXPECT_EQ(a.hops, b.hops);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const TransitionEntry& x = a.entries[i];
    const TransitionEntry& y = b.entries[i];
    EXPECT_EQ(x.transition_id, y.transition_id);
    ASSERT_EQ(x.width(), y.width());
    for (std::size_t j = 0; j < x.width(); ++j) {
      EXPECT_EQ(x.cut(j), y.cut(j));
      EXPECT_EQ(x.depend(j), y.depend(j));
      EXPECT_EQ(x.gstate(j), y.gstate(j));
      EXPECT_EQ(x.conj(j), y.conj(j));
      if (x.loop_certified) {
        EXPECT_EQ(x.loop_cut(j), y.loop_cut(j));
        EXPECT_EQ(x.loop_gstate(j), y.loop_gstate(j));
      }
    }
    EXPECT_EQ(x.eval, y.eval);
    EXPECT_EQ(x.next_target_process, y.next_target_process);
    EXPECT_EQ(x.next_target_event, y.next_target_event);
    EXPECT_EQ(x.loop_certified, y.loop_certified);
  }
}

std::vector<std::uint8_t> encode(const NetPayload& payload) {
  std::vector<std::uint8_t> bytes;
  encode_payload_into(payload, bytes);
  return bytes;
}

/// decode_payload, demanding a frame (throws WireError otherwise).
std::unique_ptr<PayloadFrame> decode_as_frame(
    const std::vector<std::uint8_t>& bytes, std::size_t max_width) {
  std::unique_ptr<NetPayload> payload = decode_payload(bytes, max_width);
  if (payload->tag != PayloadFrame::kTag) throw WireError("not a frame");
  return std::unique_ptr<PayloadFrame>(
      static_cast<PayloadFrame*>(payload.release()));
}

void expect_equal_frame(const PayloadFrame& a, const PayloadFrame& b) {
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    ASSERT_EQ(a.units[i]->tag, b.units[i]->tag) << "unit " << i;
    if (a.units[i]->tag == TokenMessage::kTag) {
      expect_equal_token(static_cast<const TokenMessage&>(*a.units[i]).token,
                         static_cast<const TokenMessage&>(*b.units[i]).token);
    } else {
      const auto& x = static_cast<const TerminationMessage&>(*a.units[i]);
      const auto& y = static_cast<const TerminationMessage&>(*b.units[i]);
      EXPECT_EQ(x.process, y.process);
      EXPECT_EQ(x.last_sn, y.last_sn);
    }
  }
}

// Seeded sweep over batch sizes 1 (the common route_token flush) through 12
// (past SmallVec-style inline capacities and the >8 mark), clock widths 1
// through 9 (crossing the inline-clock boundary), with varint-edge values
// throughout.
TEST(WireV2, SeededFrameRoundTrips) {
  std::mt19937_64 rng(20250805);
  for (std::size_t units : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                            std::size_t{9}, std::size_t{12}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              std::size_t{8}, std::size_t{9}}) {
      for (int round = 0; round < 8; ++round) {
        auto frame = random_frame(rng, units, width);
        const auto bytes = encode(*frame);
        EXPECT_EQ(bytes[1], static_cast<std::uint8_t>(WireKind::kFrame));
        auto back = decode_as_frame(bytes, width + 1);
        expect_equal_frame(*frame, *back);
      }
    }
  }
}

TEST(WireV2, TerminationOnlyFrameRoundTrips) {
  // No token unit -> empty base clock; the header must still parse.
  auto frame = std::make_unique<PayloadFrame>();
  auto term = std::make_unique<TerminationMessage>();
  term->process = 2;
  term->last_sn = 7;
  frame->units.push_back(std::move(term));
  const auto bytes = encode(*frame);
  auto back = decode_as_frame(bytes, 8);
  expect_equal_frame(*frame, *back);
}

// The counting pass and the real encoder must never disagree: bytes-on-wire
// accounting is only trustworthy if the sized frame == the encoded frame.
TEST(WireV2, StampMatchesEncodedSize) {
  std::mt19937_64 rng(404);
  for (int round = 0; round < 32; ++round) {
    auto frame = random_frame(rng, 1 + rng() % 10, 1 + rng() % 8);
    EXPECT_EQ(frame_wire_size(*frame), encode(*frame).size());
  }
}

TEST(WireV2, DecodePayloadDispatchesFrames) {
  std::mt19937_64 rng(7);
  auto frame = random_frame(rng, 3, 4);
  std::vector<std::uint8_t> bytes;
  encode_payload_into(*frame, bytes);
  auto payload = decode_payload(bytes, 5);
  ASSERT_EQ(payload->tag, PayloadFrame::kTag);
  expect_equal_frame(*frame, static_cast<const PayloadFrame&>(*payload));
}

// ---------------------------------------------------------------------------
// Corruption: the checkpoint codec's discipline, applied to frames.
// ---------------------------------------------------------------------------

TEST(WireV2, RejectsTruncationAtEveryLength) {
  std::mt19937_64 rng(17);
  auto frame = random_frame(rng, 4, 5);
  const auto bytes = encode(*frame);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_as_frame(shorter, 6), WireError) << "cut at " << cut;
  }
}

TEST(WireV2, ByteFlipsNeverCrash) {
  // A flipped byte may still decode (varint payload bytes carry no
  // redundancy), but it must either throw WireError or produce a frame --
  // never crash, hang, or allocate unboundedly. Width fields are bounded
  // by max_width, unit counts by the frame ceiling.
  std::mt19937_64 rng(23);
  auto frame = random_frame(rng, 3, 4);
  const auto bytes = encode(*frame);
  int survived = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (std::uint8_t mask : {0x01, 0x80}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[pos] ^= mask;
      try {
        auto back = decode_as_frame(flipped, 5);
        if (back) ++survived;
      } catch (const WireError&) {
        // expected for most corruptions
      }
    }
  }
  EXPECT_GT(survived, 0) << "sanity: some flips decode (no checksum layer)";
}

TEST(WireV2, RejectsTrailingGarbage) {
  std::mt19937_64 rng(29);
  auto frame = random_frame(rng, 2, 3);
  auto bytes = encode(*frame);
  bytes.push_back(0);
  EXPECT_THROW(decode_as_frame(bytes, 4), WireError);
}

TEST(WireV2, RejectsOversizedUnitCount) {
  // Hand-build a header claiming 2^20 units: the decoder must bail on the
  // ceiling before trusting the count.
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  w.u8(2);
  w.u8(3);  // WireKind::kFrame
  w.var(std::uint64_t{1} << 20);
  w.var(0);  // empty base clock
  EXPECT_THROW(decode_as_frame(buf, 4), WireError);
}

TEST(WireV2, FrameCloneDeepCopies) {
  std::mt19937_64 rng(31);
  auto frame = random_frame(rng, 3, 4);
  auto msg = std::make_unique<TokenMessage>();
  msg->token = random_token(rng, 4);
  frame->units.insert(frame->units.begin(), std::move(msg));
  auto copy = frame->clone();
  ASSERT_NE(copy, nullptr);
  auto* copied = static_cast<PayloadFrame*>(copy.get());
  expect_equal_frame(*frame, *copied);
  // Mutating the copy must not touch the original.
  static_cast<TokenMessage*>(copied->units[0].get())->token.hops += 1;
  EXPECT_NE(
      static_cast<TokenMessage*>(copied->units[0].get())->token.hops,
      static_cast<TokenMessage*>(frame->units[0].get())->token.hops);
}

// ---------------------------------------------------------------------------
// Channel envelopes (wire kind 4): the reliable channel's protocol messages
// gained a wire form so the channel can be stacked over a socket transport.
// ---------------------------------------------------------------------------

TEST(WireV2, EnvelopeWithInnerPayloadRoundTrips) {
  std::mt19937_64 rng(37);
  auto inner = random_frame(rng, 3, 4);
  const auto inner_bytes = encode(*inner);

  ChannelEnvelope env;
  env.seq = 42;
  env.ack = 17;
  env.inner = std::move(inner);

  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);
  EXPECT_EQ(bytes[1], static_cast<std::uint8_t>(WireKind::kEnvelope));

  auto back = decode_payload(bytes, 5);
  ASSERT_EQ(back->tag, ChannelEnvelope::kTag);
  auto* decoded = static_cast<ChannelEnvelope*>(back.get());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->ack, 17u);
  EXPECT_EQ(decoded->inner, nullptr);  // payload stays opaque bytes
  // ... and those bytes are exactly the inner payload's own encoding, so
  // the channel's retransmission decode path accepts them unchanged.
  EXPECT_EQ(decoded->bytes, inner_bytes);
  auto inner_back = decode_payload(decoded->bytes, 5);
  EXPECT_EQ(inner_back->tag, PayloadFrame::kTag);
}

TEST(WireV2, EnvelopeFirstSendAndRetransmitEncodeIdentically) {
  // First transmissions carry the payload object, retransmissions the
  // retained bytes; the receiver must not be able to tell them apart.
  std::mt19937_64 rng(41);
  auto inner = random_frame(rng, 2, 3);

  ChannelEnvelope retransmit;
  retransmit.seq = 7;
  retransmit.ack = 3;
  encode_payload_into(*inner, retransmit.bytes);

  ChannelEnvelope first;
  first.seq = 7;
  first.ack = 3;
  first.inner = std::move(inner);

  std::vector<std::uint8_t> a, b;
  encode_payload_into(first, a);
  encode_payload_into(retransmit, b);
  EXPECT_EQ(a, b);
}

TEST(WireV2, PureAckEnvelopeRoundTrips) {
  ChannelEnvelope env;
  env.seq = 0;
  env.ack = 123456789;

  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);

  auto back = decode_payload(bytes, 4);
  ASSERT_EQ(back->tag, ChannelEnvelope::kTag);
  auto* decoded = static_cast<ChannelEnvelope*>(back.get());
  EXPECT_EQ(decoded->seq, 0u);
  EXPECT_EQ(decoded->ack, 123456789u);
  EXPECT_TRUE(decoded->bytes.empty());
  EXPECT_EQ(decoded->inner, nullptr);
}

TEST(WireV2, EnvelopeRejectsHeaderTruncationAndEmptyPayload) {
  std::mt19937_64 rng(43);
  auto inner = random_frame(rng, 1, 2);
  ChannelEnvelope env;
  env.seq = 99;
  env.ack = 1;
  env.inner = std::move(inner);
  std::vector<std::uint8_t> bytes;
  encode_payload_into(env, bytes);

  // Truncating inside the seq/ack/flag header must throw; truncating the
  // embedded payload throws when the channel decodes the bytes, so here we
  // only pin the "has payload but zero payload bytes" case.
  for (std::size_t cut = 1; cut < 6; ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter, 3), WireError) << "cut at " << cut;
  }

  ChannelEnvelope flagged;
  flagged.seq = 1;
  std::vector<std::uint8_t> truncated;
  encode_payload_into(flagged, truncated);
  truncated.back() = 1;  // has_payload flag set, but no bytes follow
  EXPECT_THROW(decode_payload(truncated, 3), WireError);
}

}  // namespace
}  // namespace decmon

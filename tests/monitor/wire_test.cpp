#include "decmon/monitor/wire.hpp"

#include <gtest/gtest.h>

#include <random>

namespace decmon {
namespace {

TransitionEntry make_entry(int tid, std::initializer_list<std::uint32_t> cut,
                           std::initializer_list<AtomSet> gstate,
                           std::initializer_list<ConjunctEval> conj) {
  TransitionEntry e;
  e.transition_id = tid;
  e.set_width(cut.size());
  std::size_t j = 0;
  for (std::uint32_t x : cut) {
    e.cut(j) = x;
    e.depend(j) = x;
    ++j;
  }
  j = 0;
  for (AtomSet s : gstate) e.gstate(j++) = s;
  j = 0;
  for (ConjunctEval c : conj) e.conj(j++) = c;
  return e;
}

Token sample_token() {
  Token t;
  t.token_id = (std::uint64_t{2} << 32) | 17;
  t.parent = 2;
  t.parent_sn = 9;
  t.parent_vc = VectorClock{3, 1, 9};
  t.next_target_process = 0;
  t.next_target_event = 4;
  t.hops = 5;

  TransitionEntry e1 =
      make_entry(7, {3, 1, 9}, {0b01, 0b10, 0b11},
                 {ConjunctEval::kTrue, ConjunctEval::kUnset,
                  ConjunctEval::kFalse});
  e1.eval = EntryEval::kUnset;
  e1.next_target_process = 0;
  e1.next_target_event = 4;
  e1.loop_certified = true;
  {
    const std::uint32_t lc[] = {2, 1, 8};
    const AtomSet lg[] = {0, 0b10, 0b01};
    for (std::size_t j = 0; j < 3; ++j) {
      e1.loop_cut(j) = lc[j];
      e1.loop_gstate(j) = lg[j];
    }
  }

  TransitionEntry e2 =
      make_entry(12, {5, 5, 5}, {0, 0, 0},
                 {ConjunctEval::kUnset, ConjunctEval::kUnset,
                  ConjunctEval::kUnset});
  e2.eval = EntryEval::kFalse;
  e2.next_target_process = -1;  // unset target must survive the trip
  e2.next_target_event = 0;

  t.entries = {e1, e2};
  return t;
}

void expect_equal(const Token& a, const Token& b) {
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

std::vector<std::uint8_t> encode_bare_token(const Token& token) {
  TokenMessage msg;
  msg.token = token;
  return encode(msg);
}

/// Decodes `bytes` and unwraps the single unit a bare payload travels as;
/// throws WireError like the decoder when the buffer is not a 1-unit frame
/// holding `Unit`.
template <typename Unit>
Unit decode_unit(const std::vector<std::uint8_t>& bytes,
                 std::size_t max_width = kMaxWireProcesses) {
  std::unique_ptr<NetPayload> payload = decode_payload(bytes, max_width);
  if (payload->tag != PayloadFrame::kTag) throw WireError("not a frame");
  auto& frame = static_cast<PayloadFrame&>(*payload);
  if (frame.units.size() != 1 || frame.units[0]->tag != Unit::kTag) {
    throw WireError("not a 1-unit frame of the expected kind");
  }
  return std::move(static_cast<Unit&>(*frame.units[0]));
}

Token decode_bare_token(const std::vector<std::uint8_t>& bytes,
                        std::size_t max_width = kMaxWireProcesses) {
  return decode_unit<TokenMessage>(bytes, max_width).token;
}

TEST(Wire, TokenRoundTrip) {
  Token t = sample_token();
  auto bytes = encode_bare_token(t);
  EXPECT_EQ(bytes[0], 2);
  EXPECT_EQ(bytes[1], static_cast<std::uint8_t>(WireKind::kFrame));
  expect_equal(t, decode_bare_token(bytes));
}

TEST(Wire, EmptyTokenRoundTrip) {
  Token t;
  t.parent_vc = VectorClock(2);
  auto bytes = encode_bare_token(t);
  expect_equal(t, decode_bare_token(bytes));
}

TEST(Wire, TerminationRoundTrip) {
  TerminationMessage msg;
  msg.process = 3;
  msg.last_sn = 42;
  auto bytes = encode(msg);
  TerminationMessage back = decode_unit<TerminationMessage>(bytes);
  EXPECT_EQ(back.process, 3);
  EXPECT_EQ(back.last_sn, 42u);
}

TEST(Wire, RejectsTruncation) {
  auto bytes = encode_bare_token(sample_token());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter), WireError) << "cut at " << cut;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto bytes = encode_bare_token(sample_token());
  bytes.push_back(0xAB);
  EXPECT_THROW(decode_payload(bytes), WireError);
}

TEST(Wire, RejectsWrongKind) {
  // Top level: only frames (3) and envelopes (4) exist; unit kinds are not
  // messages of their own.
  const auto bytes = encode_bare_token(sample_token());
  for (std::uint8_t kind : {0, 1, 2, 5, 6, 0xFF}) {
    auto wrong = bytes;
    wrong[1] = kind;
    EXPECT_THROW(decode_payload(wrong), WireError) << "kind " << int(kind);
  }
  // Unit level: the kind byte after the header (2 bytes), the unit count
  // (1 byte) and the three-component base clock (1 + 3 bytes).
  auto bad_unit = bytes;
  ASSERT_EQ(bad_unit[7], static_cast<std::uint8_t>(WireKind::kToken));
  for (std::uint8_t kind : {0, 3, 4, 6}) {
    bad_unit[7] = kind;
    EXPECT_THROW(decode_payload(bad_unit), WireError) << "unit " << int(kind);
  }
}

TEST(Wire, RejectsBadVersion) {
  auto bytes = encode_bare_token(sample_token());
  for (std::uint8_t version : {0, 1, 3, 99}) {
    bytes[0] = version;
    EXPECT_THROW(decode_payload(bytes), WireError) << int(version);
  }
}

// Buffers in the shapes of the retired fixed-width single-message layout
// (version byte 1, then a token or termination kind) and of the retired
// top-level floor message (`02 05`) are rejected, not guessed at.
TEST(Wire, RejectsRetiredLayouts) {
  const std::vector<std::vector<std::uint8_t>> retired = {
      {0x01, 0x01, 0x11, 0, 0, 0, 2, 0, 0, 0},    // v1 token header
      {0x01, 0x02, 0x03, 0, 0, 0, 0x2A, 0, 0, 0},  // v1 termination
      {0x02, 0x05, 0x03, 0x61, 0x02},              // standalone floor
  };
  for (const auto& bytes : retired) {
    EXPECT_THROW(decode_payload(bytes), WireError);
  }
}

// A bare token, termination or floor is a 1-unit frame on the wire: it
// decodes as one, and its recorded size equals both the encoded length and
// the size walk of the same frame built explicitly.
TEST(Wire, BareUnitsTravelAsOneUnitFrames) {
  std::vector<std::unique_ptr<NetPayload>> units;
  auto token = std::make_unique<TokenMessage>();
  token->token = sample_token();
  units.push_back(std::move(token));
  auto termination = std::make_unique<TerminationMessage>();
  termination->process = 2;
  termination->last_sn = 300;
  units.push_back(std::move(termination));
  for (std::uint32_t epoch : {0u, 1u, 0xFFFFFFFFu}) {
    auto floor = std::make_unique<HistoryFloorMessage>();
    floor->process = 1;
    floor->floor = epoch == 1 ? 0u : 0xFFFFFFFFu;
    floor->epoch = epoch;
    units.push_back(std::move(floor));
  }
  for (auto& unit : units) {
    const auto bytes = encode(*unit);
    std::unique_ptr<NetPayload> payload = decode_payload(bytes, 3);
    ASSERT_EQ(payload->tag, PayloadFrame::kTag);
    const auto& frame = static_cast<const PayloadFrame&>(*payload);
    ASSERT_EQ(frame.units.size(), 1u);
    EXPECT_EQ(frame.units[0]->tag, unit->tag);

    PayloadFrame explicit_frame;
    const std::uint8_t tag = unit->tag;
    explicit_frame.units.push_back(std::move(unit));
    EXPECT_EQ(frame_wire_size(explicit_frame), bytes.size())
        << "tag " << int(tag);
    EXPECT_EQ(encode(explicit_frame), bytes) << "tag " << int(tag);
  }
}

// Byte golden: the encoding of one fixed token, checked in as hex, so the
// single wire layout cannot drift without this test noticing.
TEST(Wire, TokenFrameBytesArePinned) {
  const std::string golden =
      "02030103030109019180808020040903000000000405020e0300000000000001"
      "0203010002000004010100010002011803040807000000000000000000020100"
      "00";
  std::string hex;
  for (std::uint8_t b : encode_bare_token(sample_token())) {
    static const char* digits = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xF];
  }
  EXPECT_EQ(hex, golden);
}

Token random_token(std::mt19937_64& rng) {
  // Widths up to 12 deliberately cross the inline small-buffer boundary (8)
  // so heap-spilled entries round-trip too.
  const std::size_t width = rng() % 13;
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng() % 16);
  t.parent_sn = static_cast<std::uint32_t>(rng());
  t.parent_vc = VectorClock(width);
  for (std::size_t j = 0; j < width; ++j) {
    t.parent_vc[j] = static_cast<std::uint32_t>(rng() % 1000);
  }
  t.next_target_process = static_cast<int>(rng() % 17) - 1;  // may be -1
  t.next_target_event = static_cast<std::uint32_t>(rng() % 100);
  t.hops = static_cast<int>(rng() % 50);
  const std::size_t num_entries = rng() % 5;
  for (std::size_t i = 0; i < num_entries; ++i) {
    TransitionEntry e;
    e.transition_id = static_cast<int>(rng() % 256);
    e.set_width(width);
    for (std::size_t j = 0; j < width; ++j) {
      e.cut(j) = static_cast<std::uint32_t>(rng() % 1000);
      e.depend(j) = static_cast<std::uint32_t>(rng() % 1000);
      e.gstate(j) = static_cast<AtomSet>(rng());
      e.conj(j) = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process = static_cast<int>(rng() % 17) - 1;
    e.next_target_event = static_cast<std::uint32_t>(rng() % 100);
    e.loop_certified = (rng() % 3) == 0;
    if (e.loop_certified) {
      for (std::size_t j = 0; j < width; ++j) {
        e.loop_cut(j) = static_cast<std::uint32_t>(rng() % 1000);
        e.loop_gstate(j) = static_cast<AtomSet>(rng());
      }
    }
    t.entries.push_back(e);
  }
  return t;
}

// Property: every reachable Token survives encode/decode structurally
// intact, regardless of width (inline or heap-spilled) or loop flags.
TEST(WireProperty, RandomTokensRoundTrip) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 500; ++iter) {
    Token t = random_token(rng);
    expect_equal(t, decode_bare_token(encode_bare_token(t)));
  }
}

TEST(WireProperty, RandomTerminationsRoundTrip) {
  std::mt19937_64 rng(0xDECAF);
  for (int iter = 0; iter < 500; ++iter) {
    TerminationMessage msg;
    msg.process = static_cast<int>(rng() % 4096);
    msg.last_sn = static_cast<std::uint32_t>(rng());
    TerminationMessage back = decode_unit<TerminationMessage>(encode(msg));
    EXPECT_EQ(back.process, msg.process);
    EXPECT_EQ(back.last_sn, msg.last_sn);
  }
}

// The session process count bounds every decoded width: a token encoded
// for a wide system is rejected by a narrower session's decoder instead of
// allocating attacker-controlled amounts.
TEST(WireProperty, MaxWidthBoundsDecodedArrays) {
  std::mt19937_64 rng(0xABCD);
  Token t;
  do {
    t = random_token(rng);
  } while (t.parent_vc.size() < 6);
  const auto bytes = encode_bare_token(t);
  expect_equal(t, decode_bare_token(bytes, t.parent_vc.size()));
  EXPECT_THROW(decode_bare_token(bytes, t.parent_vc.size() - 1), WireError);
}

// Fuzz: random byte flips must raise WireError or decode to *something*,
// never crash or loop.
TEST(WireFuzz, RandomCorruptionIsSafe) {
  std::mt19937_64 rng(0xF00D);
  const auto original = encode_bare_token(sample_token());
  for (int iter = 0; iter < 2000; ++iter) {
    auto bytes = original;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    try {
      decode_payload(bytes);
    } catch (const WireError&) {
      // expected for most corruptions
    }
  }
}

// Fuzz: random buffers never crash the decoder. Half of them carry a valid
// frame header, so the fuzz reaches the unit decoders too.
TEST(WireFuzz, RandomBuffersAreSafe) {
  std::mt19937_64 rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(rng() % 64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    if (iter % 2 == 0 && bytes.size() >= 2) {
      bytes[0] = 2;
      bytes[1] = static_cast<std::uint8_t>(WireKind::kFrame);
    }
    try {
      decode_payload(bytes);
    } catch (const WireError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// HistoryFloorMessage (streaming-GC gossip, DESIGN.md §12-§13). The decoder
// is deliberately stateless about window positions: a floor below the
// receiver's restored history base is a legitimate post-crash resync value
// and must decode unharmed -- clamping is the fold's job, not the codec's.
// ---------------------------------------------------------------------------

HistoryFloorMessage decode_floor(const std::vector<std::uint8_t>& bytes) {
  return decode_unit<HistoryFloorMessage>(bytes, 16);
}

TEST(Wire, HistoryFloorRoundTripCarriesEpoch) {
  HistoryFloorMessage msg;
  msg.process = 3;
  msg.floor = 97;
  msg.epoch = 2;
  std::vector<std::uint8_t> bytes;
  encode_payload_into(msg, bytes);
  HistoryFloorMessage back = decode_floor(bytes);
  EXPECT_EQ(back.process, 3);
  EXPECT_EQ(back.floor, 97u);
  EXPECT_EQ(back.epoch, 2u);
}

TEST(Wire, HistoryFloorExtremesRoundTrip) {
  // Corner values: floor 0 under a bumped epoch is exactly the shape a
  // crash-rewound monitor re-advertises when its restored window predates
  // every promise (a floor far below any peer's base); saturated values
  // exercise the varint width edge.
  for (const auto& [floor, epoch] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 1},
        {0, 0xFFFFFFFFu},
        {0xFFFFFFFFu, 0},
        {0xFFFFFFFFu, 0xFFFFFFFFu}}) {
    HistoryFloorMessage msg;
    msg.process = 0;
    msg.floor = floor;
    msg.epoch = epoch;
    std::vector<std::uint8_t> bytes;
    encode_payload_into(msg, bytes);
    HistoryFloorMessage back = decode_floor(bytes);
    EXPECT_EQ(back.floor, floor);
    EXPECT_EQ(back.epoch, epoch);
  }
}

TEST(Wire, HistoryFloorInsideFrameRoundTrips) {
  // Resync floors travel in batched frames like every other staged payload;
  // the epoch must survive next to other units too.
  auto frame = std::make_unique<PayloadFrame>();
  auto floor = std::make_unique<HistoryFloorMessage>();
  floor->process = 1;
  floor->floor = 12;
  floor->epoch = 5;
  frame->units.push_back(std::move(floor));
  auto termination = std::make_unique<TerminationMessage>();
  termination->process = 1;
  termination->last_sn = 40;
  frame->units.push_back(std::move(termination));

  std::vector<std::uint8_t> bytes;
  encode_payload_into(*frame, bytes);
  std::unique_ptr<NetPayload> payload = decode_payload(bytes, 4);
  ASSERT_EQ(payload->tag, PayloadFrame::kTag);
  auto& back = static_cast<PayloadFrame&>(*payload);
  ASSERT_EQ(back.units.size(), 2u);
  ASSERT_EQ(back.units[0]->tag, HistoryFloorMessage::kTag);
  const auto& f = static_cast<const HistoryFloorMessage&>(*back.units[0]);
  EXPECT_EQ(f.process, 1);
  EXPECT_EQ(f.floor, 12u);
  EXPECT_EQ(f.epoch, 5u);
}

TEST(Wire, HistoryFloorRejectsTruncationAndTrailingBytes) {
  HistoryFloorMessage msg;
  msg.process = 2;
  msg.floor = 300;  // multi-byte varint
  msg.epoch = 7;
  std::vector<std::uint8_t> bytes;
  encode_payload_into(msg, bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_payload(shorter, 16), WireError) << "cut " << cut;
  }
  bytes.push_back(0x00);
  EXPECT_THROW(decode_payload(bytes, 16), WireError);
}

}  // namespace
}  // namespace decmon

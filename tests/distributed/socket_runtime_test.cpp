// SocketRuntime tests: the reassembly state machine in isolation (partial
// feeds, mid-record truncation, corrupt length prefixes), loopback
// round-trips of seeded frame convoys across clock widths, forced partial
// I/O under tiny socket buffers (which also exercises congestion
// coalescing), the unbatched per-token control posture, the verdict
// contract on the thesis properties (simulator and sockets alike), and the
// reliable channel stacked over the socket transport (envelope wire form
// end to end).
#include "decmon/distributed/socket_runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <vector>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"
#include "decmon/distributed/reliable_channel.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/crash_injector.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/token.hpp"
#include "decmon/monitor/wire.hpp"

#include "../common/verdict_contract.hpp"

namespace decmon {
namespace {

TraceParams small_params(int n, std::uint64_t seed = 3) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 6;
  p.seed = seed;
  return p;
}

SocketConfig fast_config() {
  SocketConfig c;
  c.time_scale = 0.0005;
  return c;
}

/// Channel tuning for stacking over the real transport. Timer deadlines are
/// in now() units -- real seconds on SocketRuntime -- so the simulator
/// default rto (3.0 trace seconds) would hold quiescence hostage for
/// seconds of wall clock per armed timer. 50 ms keeps retransmission prompt
/// across a loopback outage without slowing the suite.
ReliableChannelConfig socket_channel_config() {
  ReliableChannelConfig c;
  c.rto = 0.05;
  return c;
}

/// Minimal trace for runtimes used purely as a transport (no program
/// activity beyond one internal event per process, no app messages).
SystemTrace transport_trace(int n) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 1;
  p.comm_enabled = false;
  return generate_trace(p);
}

/// Records every monitor payload delivered, re-encoded to bytes so content
/// can be compared independently of object identity. Deliveries arrive from
/// every node's event-loop thread concurrently, so the capture is locked;
/// readers inspect the vectors only after run() has joined the loops.
class CaptureHooks final : public MonitorHooks {
 public:
  void on_local_event(int, const Event&, double) override {}
  void on_local_termination(int, double) override {}
  void on_monitor_message(MonitorMessage msg, double) override {
    std::vector<std::uint8_t> bytes;
    encode_payload_into(*msg.payload, bytes);
    const std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(bytes));
    tags.push_back(msg.payload->tag);
  }

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> received;
  std::vector<std::uint8_t> tags;
};

Token seeded_token(std::mt19937_64& rng, int width, int entries) {
  Token t;
  t.token_id = rng();
  t.parent = static_cast<int>(rng()) % width;
  if (t.parent < 0) t.parent = -t.parent;
  t.parent_sn = static_cast<std::uint32_t>(rng());
  t.parent_vc = VectorClock(static_cast<std::size_t>(width));
  for (int j = 0; j < width; ++j) {
    t.parent_vc[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>(rng() % 100000);
  }
  t.next_target_process = static_cast<int>(rng() % static_cast<unsigned>(width + 1)) - 1;
  t.next_target_event = static_cast<std::uint32_t>(rng() % 1000);
  t.hops = static_cast<int>(rng() % 50);
  for (int i = 0; i < entries; ++i) {
    TransitionEntry e;
    e.transition_id = static_cast<int>(rng() % 64);
    e.set_width(static_cast<std::size_t>(width));
    for (int j = 0; j < width; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      e.cut(ju) = static_cast<std::uint32_t>(rng() % 100000);
      e.depend(ju) = static_cast<std::uint32_t>(rng() % 100000);
      e.gstate(ju) = rng();
      e.conj(ju) = static_cast<ConjunctEval>(rng() % 3);
    }
    e.eval = static_cast<EntryEval>(rng() % 3);
    e.next_target_process =
        static_cast<int>(rng() % static_cast<unsigned>(width + 1)) - 1;
    e.next_target_event = static_cast<std::uint32_t>(rng() % 1000);
    e.loop_certified = rng() % 2 == 0;
    if (e.loop_certified) {
      for (int j = 0; j < width; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        e.loop_cut(ju) = static_cast<std::uint32_t>(rng() % 100000);
        e.loop_gstate(ju) = rng();
      }
    }
    t.entries.push_back(std::move(e));
  }
  return t;
}

std::unique_ptr<PayloadFrame> seeded_frame(std::mt19937_64& rng, int width,
                                           int units, int entries_per_unit) {
  auto frame = std::make_unique<PayloadFrame>();
  for (int i = 0; i < units; ++i) {
    auto msg = std::make_unique<TokenMessage>();
    msg->token = seeded_token(rng, width, entries_per_unit);
    frame->units.push_back(std::move(msg));
  }
  return frame;
}

// ---------------------------------------------------------------------------
// FrameReassembler: the partial-read state machine in isolation.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> make_record(std::uint8_t type,
                                      const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> rec(4);
  const std::uint32_t len = static_cast<std::uint32_t>(body.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    rec[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  rec.push_back(type);
  rec.insert(rec.end(), body.begin(), body.end());
  return rec;
}

TEST(FrameReassembler, ByteAtATimeFeedYieldsEveryRecord) {
  const auto r1 = make_record(0x02, {1, 2, 3, 4, 5});
  const auto r2 = make_record(0x01, {9});
  std::vector<std::uint8_t> stream = r1;
  stream.insert(stream.end(), r2.begin(), r2.end());

  FrameReassembler ra;
  std::vector<std::vector<std::uint8_t>> out;
  std::vector<std::uint8_t> rec;
  for (std::uint8_t b : stream) {
    ra.feed(&b, 1);
    while (ra.next(&rec)) out.push_back(rec);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], std::vector<std::uint8_t>({0x02, 1, 2, 3, 4, 5}));
  EXPECT_EQ(out[1], std::vector<std::uint8_t>({0x01, 9}));
  EXPECT_FALSE(ra.mid_record());
  EXPECT_EQ(ra.buffered(), 0u);
}

TEST(FrameReassembler, SplitAcrossArbitraryFragmentBoundaries) {
  std::vector<std::uint8_t> body(1000);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i);
  }
  const auto record = make_record(0x02, body);
  std::vector<std::uint8_t> stream;
  for (int copies = 0; copies < 5; ++copies) {
    stream.insert(stream.end(), record.begin(), record.end());
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{255}, std::size_t{1024}}) {
    FrameReassembler ra;
    std::size_t got = 0;
    std::vector<std::uint8_t> rec;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t len = std::min(chunk, stream.size() - off);
      ra.feed(stream.data() + off, len);
      while (ra.next(&rec)) {
        EXPECT_EQ(rec.size(), body.size() + 1);
        ++got;
      }
    }
    EXPECT_EQ(got, 5u) << "chunk " << chunk;
    EXPECT_FALSE(ra.mid_record());
  }
}

TEST(FrameReassembler, PeerCloseMidRecordIsDetectable) {
  // A stream truncated inside a record (the peer-crashed-mid-write case):
  // the reassembler yields nothing and reports the partial record, so the
  // transport can distinguish truncation from a clean close.
  const auto record = make_record(0x02, {1, 2, 3, 4, 5, 6, 7, 8});
  for (std::size_t cut = 1; cut < record.size(); ++cut) {
    FrameReassembler ra;
    ra.feed(record.data(), cut);
    std::vector<std::uint8_t> rec;
    EXPECT_FALSE(ra.next(&rec)) << "cut " << cut;
    EXPECT_TRUE(ra.mid_record()) << "cut " << cut;
    EXPECT_EQ(ra.buffered(), cut);
  }
}

TEST(FrameReassembler, RejectsCorruptLengthPrefixes) {
  {
    FrameReassembler ra;
    const std::uint8_t zero_len[4] = {0, 0, 0, 0};
    ra.feed(zero_len, 4);
    std::vector<std::uint8_t> rec;
    EXPECT_THROW(ra.next(&rec), WireError);
  }
  {
    FrameReassembler ra;
    const std::uint8_t huge_len[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ra.feed(huge_len, 4);
    std::vector<std::uint8_t> rec;
    EXPECT_THROW(ra.next(&rec), WireError);
  }
}

// ---------------------------------------------------------------------------
// Runtime basics (mirrors the ThreadRuntime suite).
// ---------------------------------------------------------------------------

TEST(SocketRuntime, RunsToQuiescenceWithoutMonitors) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
}

TEST(SocketRuntime, HistoryIsAValidComputation) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
  for (const auto& hist : rt.history()) {
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_TRUE(hist[i - 1].vc.happened_before(hist[i].vc));
    }
  }
}

TEST(SocketRuntime, AppMessageCountAndBytesMatchTrace) {
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  int comm_actions = 0;
  for (const auto& pt : trace.procs) {
    comm_actions += pt.count(TraceAction::Kind::kComm);
  }
  SocketRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(),
            static_cast<std::uint64_t>(comm_actions));  // n-1 = 1 receiver
  if (comm_actions > 0) EXPECT_GT(rt.app_bytes(), 0u);
  EXPECT_EQ(rt.wire_frames(), 0u);  // no monitors attached
}

TEST(SocketRuntime, MonitorsFinishAndSatisfyContract) {
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    const SharedProperty art =
        paper::shared_property(paper::Property::kD, 3, reg);
    const MonitorAutomaton& m = art->automaton();
    const CompiledProperty& prop = art->property();
    SystemTrace trace = generate_trace(
        small_params(3, 100 + static_cast<std::uint64_t>(round)));

    SocketRuntime rt(trace, &reg, fast_config());
    DecentralizedMonitor dm(&prop, &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, m);
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
    for (Verdict x : v.verdicts) {
      if (x != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(x)) << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serialization round-trips over real sockets.
// ---------------------------------------------------------------------------

TEST(SocketRuntime, SeededFrameConvoysRoundTripAcrossClockWidths) {
  // Frames injected before run() cross the wire during it; the receiver's
  // re-encoding must be byte-identical to the sender's encoding (encode ->
  // TCP -> reassemble -> decode -> re-encode is the identity).
  for (int width : {2, 3, 5, 8, 9}) {
    std::mt19937_64 rng(900 + static_cast<std::uint64_t>(width));
    AtomRegistry reg = paper::make_registry(width);
    SocketRuntime rt(transport_trace(width), &reg, fast_config());
    CaptureHooks hooks;
    rt.set_hooks(&hooks);

    std::vector<std::vector<std::uint8_t>> sent;
    for (int i = 0; i < 6; ++i) {
      auto frame = seeded_frame(rng, width, 1 + i % 4, i % 3);
      std::vector<std::uint8_t> bytes;
      encode_payload_into(*frame, bytes);
      sent.push_back(std::move(bytes));
      const int from = i % width;
      const int to = (i + 1) % width;
      rt.send(MonitorMessage{from, to, std::move(frame)});
    }
    rt.run();

    // Frames to distinct destinations may interleave, so compare as
    // multisets of encodings (order per channel is covered below).
    std::multiset<std::vector<std::uint8_t>> want(sent.begin(), sent.end());
    std::multiset<std::vector<std::uint8_t>> got(hooks.received.begin(),
                                                 hooks.received.end());
    EXPECT_EQ(want, got) << "width " << width;
  }
}

TEST(SocketRuntime, TinyBuffersForcePartialIOAndCoalescing) {
  // Socket buffers far smaller than the outstanding data force EAGAIN on
  // the send side and fragmented reads on the receive side; while the
  // channel is congested, later frames must merge into the staged frame
  // (the kTransit convoy on real congestion) rather than grow the queue.
  const int n = 2;
  const int kFrames = 12;
  const int kUnitsPerFrame = 4;
  std::mt19937_64 rng(77);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  std::vector<std::uint64_t> sent_ids;
  for (int i = 0; i < kFrames; ++i) {
    auto frame = seeded_frame(rng, n, kUnitsPerFrame, /*entries=*/6);
    for (const auto& unit : frame->units) {
      sent_ids.push_back(
          static_cast<const TokenMessage&>(*unit).token.token_id);
    }
    rt.send(MonitorMessage{0, 1, std::move(frame)});
  }
  rt.run();

  EXPECT_GT(rt.partial_writes(), 0u);
  EXPECT_GT(rt.coalesced_frames(), 0u);
  EXPECT_LT(rt.wire_frames(), static_cast<std::uint64_t>(kFrames));

  // Every token arrived exactly once, in send order (frames only merge
  // back-to-front on one FIFO channel, so unit order is preserved).
  std::vector<std::uint64_t> got_ids;
  for (const auto& bytes : hooks.received) {
    auto payload = decode_payload(bytes, n);
    ASSERT_EQ(payload->tag, PayloadFrame::kTag);
    for (const auto& unit : static_cast<PayloadFrame&>(*payload).units) {
      got_ids.push_back(
          static_cast<const TokenMessage&>(*unit).token.token_id);
    }
  }
  EXPECT_EQ(got_ids, sent_ids);
}

TEST(SocketRuntime, UnbatchedModeSplitsFramesIntoPerUnitRecords) {
  const int n = 2;
  std::mt19937_64 rng(123);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.batch = false;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  for (int i = 0; i < 3; ++i) {
    rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 4, 2)});
  }
  rt.run();

  EXPECT_EQ(rt.wire_frames(), 12u);  // 3 frames x 4 units, one record each
  ASSERT_EQ(hooks.received.size(), 12u);
  for (std::uint8_t tag : hooks.tags) EXPECT_EQ(tag, PayloadFrame::kTag);
  for (const auto& bytes : hooks.received) {
    // Each record is a single unit, which travels as a 1-unit frame.
    auto payload = decode_payload(bytes, n);
    ASSERT_EQ(payload->tag, PayloadFrame::kTag);
    const auto& frame = static_cast<const PayloadFrame&>(*payload);
    ASSERT_EQ(frame.units.size(), 1u);
    EXPECT_EQ(frame.units[0]->tag, TokenMessage::kTag);
  }
}

TEST(SocketRuntime, BatchingReducesBytesOnWireUnderCongestion) {
  // Same injected workload, both postures, tiny buffers: the batched run
  // must move fewer records and fewer bytes (merged frames share the
  // record header, frame header and base clock).
  const int n = 2;
  auto run_posture = [&](bool batch, std::uint64_t* frames,
                         std::uint64_t* bytes) {
    std::mt19937_64 rng(55);
    AtomRegistry reg = paper::make_registry(n);
    SocketConfig config = fast_config();
    config.batch = batch;
    config.sndbuf = 2048;
    config.rcvbuf = 2048;
    SocketRuntime rt(transport_trace(n), &reg, config);
    CaptureHooks hooks;
    rt.set_hooks(&hooks);
    for (int i = 0; i < 10; ++i) {
      rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 4, 4)});
    }
    rt.run();
    *frames = rt.wire_frames();
    *bytes = rt.wire_bytes();
  };
  std::uint64_t batched_frames = 0, batched_bytes = 0;
  std::uint64_t split_frames = 0, split_bytes = 0;
  run_posture(true, &batched_frames, &batched_bytes);
  run_posture(false, &split_frames, &split_bytes);
  EXPECT_LT(batched_frames, split_frames);
  EXPECT_LT(batched_bytes, split_bytes);
}

// ---------------------------------------------------------------------------
// Differential: socket verdicts match the deterministic simulator.
// ---------------------------------------------------------------------------

TEST(VerdictContract, RejectsMissedAndUnsupportedVerdicts) {
  using testing::verdicts_meet_contract;
  const std::set<Verdict> oracle = {Verdict::kUnknown, Verdict::kFalse};
  EXPECT_TRUE(verdicts_meet_contract(oracle, oracle));
  // A '?' the oracle lacks is allowed: '?' is reported whenever a monitor
  // has not committed, it is not a claim about a lattice path.
  EXPECT_TRUE(verdicts_meet_contract({Verdict::kUnknown, Verdict::kFalse},
                                     {Verdict::kFalse}));
  EXPECT_FALSE(verdicts_meet_contract({Verdict::kUnknown}, oracle));
  EXPECT_FALSE(verdicts_meet_contract(
      {Verdict::kUnknown, Verdict::kFalse, Verdict::kTrue}, oracle));
}

TEST(SocketRuntime, VerdictsMatchSimRuntimeOnThesisProperties) {
  // The simulator and a SocketRuntime run over the same trace record
  // different computations (where a receive lands depends on wall-clock
  // timing), so each run is checked against the oracle on its own history.
  for (paper::Property p : paper::kAllProperties) {
    SCOPED_TRACE(paper::name(p));
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = paper::shared_property(p, n, reg);
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    SimRuntime sim(trace, &reg);
    DecentralizedMonitor sim_dm(&art->property(), &sim,
                                initial_letters_of(reg, sim.initial_states()));
    sim.set_hooks(&sim_dm);
    sim.run();
    EXPECT_TRUE(testing::run_meets_contract(sim_dm.result(), sim.history(),
                                            art->automaton()));

    SocketRuntime rt(trace, &reg, fast_config());
    DecentralizedMonitor dm(&art->property(), &rt,
                            initial_letters_of(reg, rt.initial_states()));
    rt.set_hooks(&dm);
    rt.run();
    EXPECT_TRUE(testing::run_meets_contract(dm.result(), rt.history(),
                                            art->automaton()));
  }
}

TEST(SocketRuntime, AotGeneratedPropertyMatchesSynthesisVerdicts) {
  // Generated-vs-synthesized over real sockets: an AOT store admission
  // (zero synthesis, shared artifact, aliasing property handles in every
  // replica) and a runtime-synthesized property both meet the contract on
  // the history their own run recorded.
  for (paper::Property p : paper::kAllProperties) {
    SCOPED_TRACE(paper::name(p));
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    AtomRegistry reg = paper::make_registry(n);
    MonitorAutomaton m = paper::build_automaton_uncached(p, n, reg);
    CompiledProperty prop(&m, &reg);
    SocketRuntime synth_rt(trace, &reg, fast_config());
    DecentralizedMonitor synth_dm(
        &prop, &synth_rt, initial_letters_of(reg, synth_rt.initial_states()));
    synth_rt.set_hooks(&synth_dm);
    synth_rt.run();
    EXPECT_TRUE(testing::run_meets_contract(synth_dm.result(),
                                            synth_rt.history(), m));

    SharedProperty artifact =
        paper::shared_property(p, n, paper::make_registry(n));
    SocketRuntime aot_rt(trace, &artifact->registry(), fast_config());
    DecentralizedMonitor aot_dm(
        property_handle(artifact), &aot_rt,
        initial_letters_of(artifact->registry(), aot_rt.initial_states()));
    aot_rt.set_hooks(&aot_dm);
    aot_rt.run();
    EXPECT_TRUE(testing::run_meets_contract(aot_dm.result(), aot_rt.history(),
                                            artifact->automaton()));
  }
}

// ---------------------------------------------------------------------------
// Reliable channel over the socket transport (envelope wire form end to
// end: every monitor payload crosses as a serialized ChannelEnvelope).
// ---------------------------------------------------------------------------

TEST(SocketRuntime, ReliableChannelOverSocketsDeliversAndDrains) {
  for (int round = 0; round < 2; ++round) {
    const int n = 3;
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art =
        paper::shared_property(paper::Property::kD, n, reg);
    const MonitorAutomaton& m = art->automaton();
    const CompiledProperty& prop = art->property();
    SystemTrace trace = generate_trace(
        small_params(n, 300 + static_cast<std::uint64_t>(round)));

    SocketRuntime rt(trace, &reg, fast_config());
    ReliableChannel channel(&rt, n, socket_channel_config());
    DecentralizedMonitor dm(&prop, &channel,
                            initial_letters_of(reg, rt.initial_states()));
    channel.set_hooks(&dm);
    rt.set_hooks(&channel);
    rt.run();

    EXPECT_TRUE(dm.all_finished()) << "round " << round;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(channel.unacked_count(i), 0u) << "round " << round;
    }
    Computation comp(rt.history());
    OracleResult oracle = oracle_evaluate(comp, m);
    SystemVerdict v = dm.result();
    for (Verdict x : oracle.verdicts) {
      EXPECT_TRUE(v.verdicts.count(x)) << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault tolerance (DESIGN.md §13): abortive connection kills mid-run,
// reconnect + HELLO reconciliation, and the node-kill / checkpoint-restore
// / mesh-rejoin drill.
// ---------------------------------------------------------------------------

TEST(SocketFault, KilledConnectionReconnectsAndRetiresLostRecords) {
  // Transport-only: seeded frames cross one channel whose connection is
  // abortively killed (RST) after a few records. The run must still drain
  // to quiescence -- every encoded record is either dispatched or
  // reconciled as lost at the HELLO exchange, never leaked -- and the link
  // must have come back exactly once.
  const int n = 2;
  std::mt19937_64 rng(4242);
  AtomRegistry reg = paper::make_registry(n);
  SocketConfig config = fast_config();
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  config.fault.enabled = true;
  config.fault.seed = 11;
  config.fault.kill_after_min = 2;
  config.fault.kill_after_max = 4;
  config.fault.max_kills = 1;
  SocketRuntime rt(transport_trace(n), &reg, config);
  CaptureHooks hooks;
  rt.set_hooks(&hooks);

  for (int i = 0; i < 10; ++i) {
    rt.send(MonitorMessage{0, 1, seeded_frame(rng, n, 2, 4)});
  }
  rt.run();  // must not throw and must not hang

  EXPECT_EQ(rt.connections_killed(), 1u);
  EXPECT_EQ(rt.reconnects(), 1u);
  EXPECT_GT(rt.disconnect_drops(), 0u);
  // Conservation: every record was dispatched or counted as lost.
  EXPECT_EQ(rt.monitor_messages_processed() + rt.disconnect_drops(),
            rt.wire_frames());
  EXPECT_EQ(hooks.received.size(), rt.monitor_messages_processed());
}

TEST(SocketFault, GoldenVerdictsSurviveConnectionKillUnderReliableChannel) {
  // The acceptance drill: a live connection dies mid-run (RST, in-flight
  // records lost) under the full monitoring stack. The reliable channel's
  // retransmissions bridge the outage over the reconnected socket, so the
  // monitors still drain and meet the contract on the recorded history --
  // no verdict lost to the kill, no fatal throw.
  for (paper::Property p : {paper::Property::kA, paper::Property::kD}) {
    SCOPED_TRACE(paper::name(p));
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    AtomRegistry reg = paper::make_registry(n);
    const SharedProperty art = paper::shared_property(p, n, reg);
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    SocketConfig config = fast_config();
    config.fault.enabled = true;
    config.fault.seed = 23;
    config.fault.kill_after_min = 4;
    config.fault.kill_after_max = 12;
    config.fault.max_kills = 1;
    SocketRuntime rt(trace, &reg, config);
    ReliableChannel channel(&rt, n, socket_channel_config());
    DecentralizedMonitor dm(&art->property(), &channel,
                            initial_letters_of(reg, rt.initial_states()));
    channel.set_hooks(&dm);
    rt.set_hooks(&channel);
    rt.run();

    EXPECT_EQ(rt.connections_killed(), 1u);
    EXPECT_GE(rt.reconnects(), 1u);
    EXPECT_TRUE(testing::run_meets_contract(dm.result(), rt.history(),
                                            art->automaton()));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(channel.unacked_count(i), 0u);
    }
  }
}

TEST(SocketFault, KillConnectionApiIsSafeFromOutsideTheMesh) {
  // The public kill API drives the same teardown the seeded plan uses;
  // calling it for an already-down pair later is a no-op, and the run
  // still converges on the golden verdicts.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  const MonitorAutomaton& m = art->automaton();
  const CompiledProperty& prop = art->property();
  SystemTrace trace = generate_trace(small_params(n, 901));

  SocketRuntime rt(trace, &reg, fast_config());
  ReliableChannel channel(&rt, n, socket_channel_config());
  DecentralizedMonitor dm(&prop, &channel,
                          initial_letters_of(reg, rt.initial_states()));
  channel.set_hooks(&dm);
  rt.set_hooks(&channel);

  EXPECT_THROW(rt.kill_connection(0, 0), std::out_of_range);
  EXPECT_THROW(rt.kill_connection(-1, 1), std::out_of_range);
  rt.kill_connection(0, 1);  // pre-run: dies at the first link service
  rt.run();

  EXPECT_GE(rt.connections_killed(), 1u);
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, m);
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) {
    EXPECT_TRUE(v.verdicts.count(x));
  }
}

TEST(SocketFault, NodeKillCheckpointRestoreAndMeshRejoin) {
  // The full crash drill over the real transport: the hooks-layer
  // CrashInjector kills and restores the monitor's state from its
  // checkpoint, while the transport-layer node kill severs every one of
  // the node's links at once (both sides of the crash). The mesh re-forms
  // through the normal reconnect path, retransmissions redeliver what the
  // dead node swallowed, and the verdicts still satisfy the contract.
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art =
      paper::shared_property(paper::Property::kD, n, reg);
  const MonitorAutomaton& m = art->automaton();
  const CompiledProperty& prop = art->property();
  SystemTrace trace = generate_trace(small_params(n, 505));

  SocketConfig config = fast_config();
  config.fault.enabled = true;
  config.fault.seed = 31;
  config.fault.max_kills = 0;  // only the node kill, no extra link kills
  config.fault.kill_node = 1;
  config.fault.kill_node_after = 1;  // fires at node 1's 2nd monitor record
  SocketRuntime rt(trace, &reg, config);
  ReliableChannel channel(&rt, n, socket_channel_config());
  DecentralizedMonitor dm(&prop, &channel,
                          initial_letters_of(reg, rt.initial_states()));
  channel.set_hooks(&dm);
  CrashPlan plan;
  plan.node = 1;
  plan.crash_after = 4;
  plan.down_deliveries = 2;
  CrashInjector injector(&channel, &dm, &channel, plan);
  rt.set_hooks(&injector);
  rt.run();

  EXPECT_EQ(rt.connections_killed(), static_cast<std::uint64_t>(n - 1));
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_GE(injector.stats().crashes, 1u);
  EXPECT_GE(injector.stats().restarts, 1u);
  EXPECT_TRUE(injector.recovered());
  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, m);
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) {
    EXPECT_TRUE(v.verdicts.count(x));
  }
  for (Verdict x : v.verdicts) {
    if (x != Verdict::kUnknown) EXPECT_TRUE(oracle.verdicts.count(x));
  }
}

TEST(SocketFault, AppRecordsAreReplayedNeverLost) {
  // App records carry the program's expected-receive bookkeeping: losing
  // one would hang the run forever. Kill connections aggressively under a
  // comm-heavy trace (no monitors, so nothing above the transport can
  // repair anything) -- every receive must still happen, proving the
  // replay log covers exactly what each RST destroyed.
  TraceParams p = small_params(3, 808);
  p.internal_events = 10;
  SystemTrace trace = generate_trace(p);
  AtomRegistry reg = paper::make_registry(3);
  SocketConfig config = fast_config();
  config.time_scale = 0.002;  // stretch the run so kills land mid-stream
  config.sndbuf = 2048;
  config.rcvbuf = 2048;
  config.fault.enabled = true;
  config.fault.seed = 99;
  config.fault.kill_after_min = 1;
  config.fault.kill_after_max = 2;
  config.fault.max_kills = 3;
  SocketRuntime rt(trace, &reg, config);
  // One frame per channel arms the monitor-record kill countdowns; the
  // interesting traffic is the app broadcast stream underneath.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) rt.send(MonitorMessage{i, j, seeded_frame(rng, 3, 1, 1)});
    }
  }
  rt.run();  // quiescence is itself the assertion: no receive was lost

  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
  EXPECT_EQ(rt.connections_killed(), 3u);
  // Every kill redials, but a kill that lost nothing does not block
  // quiescence, so the run may finish before its redial lands.
  EXPECT_GE(rt.reconnects(), 1u);
  EXPECT_LE(rt.reconnects(), 3u);
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
}

TEST(SocketRuntime, QuiescenceIsExactNoWorkAfterRunReturns) {
  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty art =
      paper::shared_property(paper::Property::kA, 3, reg);
  const CompiledProperty& prop = art->property();
  SystemTrace trace = generate_trace(small_params(3, 77));

  SocketRuntime rt(trace, &reg, fast_config());
  DecentralizedMonitor dm(&prop, &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  EXPECT_TRUE(dm.all_finished());
  EXPECT_GE(rt.monitor_messages_processed(), rt.wire_frames());
  const std::uint64_t events = rt.program_events();
  const std::uint64_t frames = rt.wire_frames();
  const std::uint64_t bytes = rt.wire_bytes();
  EXPECT_EQ(rt.program_events(), events);
  EXPECT_EQ(rt.wire_frames(), frames);
  EXPECT_EQ(rt.wire_bytes(), bytes);
}

}  // namespace
}  // namespace decmon

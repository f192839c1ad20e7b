// Direct unit tests of one MonitorProcess replica: token creation, routing
// rules, parking, termination flush, probe suppression, statistics. A
// capturing fake network makes every send observable.
#include "decmon/monitor/monitor_process.hpp"

#include <gtest/gtest.h>

#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

class CapturingNetwork : public MonitorNetwork {
 public:
  // The monitor flushes batched frames; flatten them back into one message
  // per unit so the assertions below observe individual tokens and
  // termination signals (frames_seen still counts the actual sends).
  void send(MonitorMessage msg) override {
    if (msg.payload && msg.payload->tag == PayloadFrame::kTag) {
      ++frames_seen;
      std::unique_ptr<PayloadFrame> frame(
          static_cast<PayloadFrame*>(msg.payload.release()));
      for (std::unique_ptr<NetPayload>& unit : frame->units) {
        sent.push_back(MonitorMessage{msg.from, msg.to, std::move(unit)});
      }
      return;
    }
    sent.push_back(std::move(msg));
  }
  double now() const override { return t; }

  std::vector<MonitorMessage> sent;
  int frames_seen = 0;
  double t = 0.0;

  std::vector<Token> tokens_to(int proc, int parent = -1) {
    std::vector<Token> out;
    for (const MonitorMessage& m : sent) {
      if (m.to != proc) continue;
      if (auto* tok = dynamic_cast<TokenMessage*>(m.payload.get())) {
        if (parent >= 0 && tok->token.parent != parent) continue;
        out.push_back(tok->token);
      }
    }
    return out;
  }
  int terminations() const {
    int n = 0;
    for (const MonitorMessage& m : sent) {
      if (dynamic_cast<TerminationMessage*>(m.payload.get())) ++n;
    }
    return n;
  }
};

Event make_event(int proc, std::uint32_t sn, VectorClock vc, AtomSet letter,
                 EventType type = EventType::kInternal) {
  Event e;
  e.type = type;
  e.process = proc;
  e.sn = sn;
  e.vc = std::move(vc);
  e.letter = letter;
  return e;
}

struct Fixture {
  AtomRegistry reg;
  MonitorAutomaton automaton;
  CompiledProperty prop;
  CapturingNetwork net;

  Fixture(const std::string& formula, int n)
      : reg(paper::make_registry(n)),
        automaton(synthesize_monitor(parse_ltl(formula, reg))),
        prop(&automaton, &reg) {}
};

// Atoms for n=2: P0.p=bit0, P0.q=bit1, P1.p=bit2, P1.q=bit3.

TEST(MonitorProcessUnit, NoProbeWhenLocallyForbidden) {
  // F(P0.p && P1.p): M0's local p is false, so M0 forbids the transition
  // and sends nothing.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  EXPECT_TRUE(f.net.sent.empty());
  EXPECT_EQ(m.stats().tokens_created, 0u);
}

TEST(MonitorProcessUnit, ProbeSentWhenLocalConjunctHolds) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  auto tokens = f.net.tokens_to(1);
  ASSERT_EQ(tokens.size(), 1u);
  const Token& t = tokens[0];
  EXPECT_EQ(t.parent, 0);
  EXPECT_EQ(t.parent_sn, 1u);
  ASSERT_EQ(t.entries.size(), 1u);
  // The entry asks P1 for its next event.
  EXPECT_EQ(t.next_target_process, 1);
  EXPECT_EQ(t.next_target_event, 1u);
  EXPECT_EQ(m.stats().token_messages_sent, 1u);
}

TEST(MonitorProcessUnit, DuplicateProbesSuppressed) {
  // Two consecutive events with the same letter and state: the second probe
  // is deduplicated (4.3.2) while the first token is outstanding.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b01), 2.0);
  EXPECT_EQ(f.net.tokens_to(1).size(), 1u);
  // With dedup off, the second probe goes out too.
  CapturingNetwork net2;
  MonitorOptions options;
  options.dedupe_probes = false;
  MonitorProcess m2(0, &f.prop, &net2, {0, 0}, options);
  m2.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m2.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b01), 2.0);
  EXPECT_EQ(net2.tokens_to(1).size(), 2u);
}

TEST(MonitorProcessUnit, VisitingTokenWalksHistoryAndAnswers) {
  // M1 receives a token from M0 asking for P1.p; the satisfying event is
  // already in M1's history, so the token returns immediately.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, &f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  m1.on_local_event(make_event(1, 1, VectorClock{0, 1}, 0b100), 1.5);
  m1.on_token(probe, 2.0);
  // Filter to the reply: M1 also launches its own probe towards P0.
  auto replies = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].entries.at(0).eval, EntryEval::kTrue);
  ASSERT_EQ(replies[0].entries.at(0).width(), 2u);
  EXPECT_EQ(replies[0].entries.at(0).cut(0), 1u);
  EXPECT_EQ(replies[0].entries.at(0).cut(1), 1u);
}

TEST(MonitorProcessUnit, VisitingTokenParksForFutureEvent) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, &f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  m1.on_token(probe, 2.0);  // P1 has no events yet
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  EXPECT_TRUE(net1.tokens_to(0).empty());
  // The event arrives: the token wakes and answers.
  m1.on_local_event(make_event(1, 1, VectorClock{0, 1}, 0b100), 3.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  ASSERT_EQ(net1.tokens_to(0, /*parent=*/0).size(), 1u);
  EXPECT_EQ(net1.tokens_to(0, 0).at(0).entries.at(0).eval, EntryEval::kTrue);
}

TEST(MonitorProcessUnit, TerminationFlushesParkedTokens) {
  // Theorem 1 / Lemma 1: the awaited event never happens; termination sends
  // the token home with the entry disabled.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, &f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);

  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  m1.on_token(probe, 2.0);
  ASSERT_EQ(m1.num_waiting_tokens(), 1u);
  m1.on_local_termination(3.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  ASSERT_EQ(net1.tokens_to(0, /*parent=*/0).size(), 1u);
  EXPECT_EQ(net1.tokens_to(0, 0).at(0).entries.at(0).eval,
            EntryEval::kFalse);
  EXPECT_EQ(net1.terminations(), 1);
}

TEST(MonitorProcessUnit, ReturnedEnabledTokenSpawnsAndDeclares) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m0(0, &f.prop, &f.net, {0, 0});
  m0.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  Token probe = f.net.tokens_to(1).at(0);
  // Simulate M1's answer: the entry enabled at cut {1,1}.
  probe.entries[0].cut(0) = 1;
  probe.entries[0].cut(1) = 1;
  probe.entries[0].gstate(0) = 0b01;
  probe.entries[0].gstate(1) = 0b100;
  probe.entries[0].conj(0) = ConjunctEval::kTrue;
  probe.entries[0].conj(1) = ConjunctEval::kTrue;
  probe.entries[0].eval = EntryEval::kTrue;
  probe.next_target_process = 0;
  m0.on_token(probe, 3.0);
  EXPECT_TRUE(m0.declared().count(Verdict::kTrue));
  EXPECT_TRUE(m0.verdicts().count(Verdict::kTrue));
}

TEST(MonitorProcessUnit, SettledStateProbesPruned) {
  // G F (p0 && p1): no finite trace ever decides it. Minimization would
  // collapse the monitor to one state; an *unminimized* monitor keeps
  // several '?' states with outgoing transitions between them -- all
  // settled, so the 7.2.2 pruning drops every probe.
  AtomRegistry reg = paper::make_registry(2);
  SynthesisOptions synth;
  synth.minimize = false;
  MonitorAutomaton automaton =
      synthesize_monitor(parse_ltl("G(F(P0.p && P1.p))", reg), synth);
  ASSERT_GT(automaton.num_states(), 1);
  CompiledProperty prop(&automaton, &reg);
  for (int q = 0; q < automaton.num_states(); ++q) {
    EXPECT_TRUE(prop.verdict_settled(q));
  }

  CapturingNetwork net;
  MonitorProcess m(0, &prop, &net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b00), 2.0);
  EXPECT_EQ(m.stats().tokens_created, 0u);
  EXPECT_TRUE(net.sent.empty());
}

TEST(MonitorProcessUnit, FinishesAfterAllTermination) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  EXPECT_FALSE(m.finished());
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  m.on_local_termination(2.0);
  EXPECT_FALSE(m.finished());  // peer still running
  m.on_peer_termination(1, 0, 3.0);
  EXPECT_TRUE(m.finished());
  EXPECT_DOUBLE_EQ(m.stats().finish_time, 3.0);
}

TEST(MonitorProcessUnit, RejectsOutOfOrderEvents) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  EXPECT_THROW(
      m.on_local_event(make_event(0, 5, VectorClock{5, 0}, 0), 1.0),
      std::logic_error);
}

TEST(MonitorProcessUnit, ImmediateVerdictAtInitialState) {
  // G(P0.p && P1.p) with an all-false initial state: violated at INIT.
  Fixture f("G(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  EXPECT_TRUE(m.declared().count(Verdict::kFalse));
}

TEST(MonitorProcessUnit, VerdictCallbackFires) {
  Fixture f("F(P0.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  Verdict seen = Verdict::kUnknown;
  double at = -1;
  m.set_verdict_callback([&](Verdict v, double now) {
    seen = v;
    at = now;
  });
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 4.5);
  EXPECT_EQ(seen, Verdict::kTrue);
  EXPECT_DOUBLE_EQ(at, 4.5);
}

TEST(MonitorProcessUnit, EventsQueueBehindOutstandingToken) {
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0b01), 1.0);
  ASSERT_EQ(f.net.tokens_to(1).size(), 1u);
  // While the token is away, further events are delayed for the launchpad
  // view (its forked copy keeps processing them).
  m.on_local_event(make_event(0, 2, VectorClock{2, 0}, 0b00), 2.0);
  m.on_local_event(make_event(0, 3, VectorClock{3, 0}, 0b00), 3.0);
  EXPECT_GT(m.stats().events_delayed, 0u);
}

// ---------------------------------------------------------------------------
// Streaming-GC floor fold under crash epochs (DESIGN.md §13). The fold is
// observable through trim_bound(): the per-peer slot is one of its minima.
// ---------------------------------------------------------------------------

/// Count and inspect the HistoryFloorMessage units a monitor sent.
std::vector<HistoryFloorMessage> floors_sent(const CapturingNetwork& net) {
  std::vector<HistoryFloorMessage> out;
  for (const MonitorMessage& m : net.sent) {
    if (auto* f = dynamic_cast<HistoryFloorMessage*>(m.payload.get())) {
      out.push_back(*f);
    }
  }
  return out;
}

TEST(MonitorProcessUnit, FloorFoldMaxesWithinAnEpoch) {
  // Duplicated and reordered gossip within one epoch is absorbed by the
  // max; the fold never regresses without an epoch bump.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  EXPECT_EQ(m.trim_bound(), 0u);  // silent peer pins the bound at 0

  m.on_history_floor(1, 3, /*epoch=*/0, 9.0);
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 2, 0, 9.1);  // reordered stale value: absorbed
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 3, 0, 9.2);  // exact duplicate: no-op
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 5, 0, 9.3);
  EXPECT_EQ(m.trim_bound(), 5u);
}

TEST(MonitorProcessUnit, FloorEpochBumpReplacesEvenDownward) {
  // A higher epoch means the peer restarted from a checkpoint: its
  // re-advertised floor REPLACES the stored promise, the one sanctioned
  // regression. Stragglers from the dead epoch are then ignored no matter
  // how they reorder with the resync.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 5, /*epoch=*/0, 9.0);
  EXPECT_EQ(m.trim_bound(), 5u);

  m.on_history_floor(1, 1, 1, 9.1);  // crash rewind: clamp below the promise
  EXPECT_EQ(m.trim_bound(), 1u);
  m.on_history_floor(1, 4, 0, 9.2);  // pre-crash straggler, reordered in
  EXPECT_EQ(m.trim_bound(), 1u);
  m.on_history_floor(1, 3, 1, 9.3);  // new epoch resumes the monotone fold
  EXPECT_EQ(m.trim_bound(), 3u);
  m.on_history_floor(1, 0, 2, 9.4);  // second crash, rewound to the origin
  EXPECT_EQ(m.trim_bound(), 0u);
}

TEST(MonitorProcessUnit, FloorFromHostileSenderIsIgnored) {
  // The floor handler sits on the decode path: out-of-range and self
  // senders must be dropped, not trusted or crashed on.
  Fixture f("F(P0.p && P1.p)", 2);
  MonitorProcess m(0, &f.prop, &f.net, {0, 0});
  for (std::uint32_t sn = 1; sn <= 4; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 2, 0, 5.0);
  m.on_history_floor(-1, 9, 9, 5.1);
  m.on_history_floor(0, 9, 9, 5.2);  // self
  m.on_history_floor(7, 9, 9, 5.3);  // out of range
  EXPECT_EQ(m.trim_bound(), 2u);
}

TEST(MonitorProcessUnit, ResyncBumpsEpochAndReAdvertises) {
  // resync_floors is the recovery half of the handshake: each call stamps a
  // strictly higher epoch on freshly advertised floors, so receivers can
  // tell a post-restore advertisement from a pre-crash straggler.
  AtomRegistry reg = paper::make_registry(2);
  MonitorAutomaton automaton =
      synthesize_monitor(parse_ltl("F(P0.p && P1.p)", reg));
  CompiledProperty prop(&automaton, &reg);
  CapturingNetwork net;
  MonitorOptions options;
  options.streaming = true;
  options.gc_interval = 1000;  // manual sweeps only
  MonitorProcess m(0, &prop, &net, {0, 0}, options);
  m.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);

  m.resync_floors(2.0);
  m.resync_floors(3.0);
  const auto sent = floors_sent(net);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].process, 0);
  EXPECT_EQ(sent[0].epoch, 1u);
  EXPECT_EQ(sent[1].epoch, 2u);
  EXPECT_EQ(m.stats().resync_floors, 2u);

  // Outside the streaming posture the handshake is a no-op (there is no
  // window to resync, and goldens must stay silent).
  CapturingNetwork net2;
  MonitorProcess plain(0, &prop, &net2, {0, 0});
  plain.on_local_event(make_event(0, 1, VectorClock{1, 0}, 0), 1.0);
  plain.resync_floors(2.0);
  EXPECT_TRUE(floors_sent(net2).empty());
  EXPECT_EQ(plain.stats().resync_floors, 0u);
}

TEST(MonitorProcessUnit, ResyncFloorBelowTrimmedBaseBlocksFutureTrims) {
  // The crash×GC corner: a peer restores below our already-trimmed base and
  // re-advertises the rewound floor. We cannot un-trim -- the below-base
  // guard covers re-walks into the gone prefix -- but the clamp must block
  // all further trimming until the peer's fold catches back up.
  AtomRegistry reg = paper::make_registry(2);
  MonitorAutomaton automaton =
      synthesize_monitor(parse_ltl("F(P0.p && P1.p)", reg));
  CompiledProperty prop(&automaton, &reg);
  CapturingNetwork net;
  MonitorOptions options;
  options.streaming = true;
  options.gc_interval = 1000;
  MonitorProcess m(0, &prop, &net, {0, 0}, options);
  for (std::uint32_t sn = 1; sn <= 8; ++sn) {
    m.on_local_event(make_event(0, sn, VectorClock{sn, 0}, 0), double(sn));
  }
  m.on_history_floor(1, 5, /*epoch=*/0, 9.0);
  m.gc_sweep(9.5);
  ASSERT_EQ(m.history_base(), 5u);

  // The peer crashed and rewound below our base.
  m.on_history_floor(1, 2, 1, 10.0);
  EXPECT_EQ(m.trim_bound(), 2u);
  m.gc_sweep(10.5);  // must not trim (bound < base) and must not throw
  EXPECT_EQ(m.history_base(), 5u);

  // The rewound peer makes progress again; trimming resumes past the base.
  m.on_history_floor(1, 7, 1, 11.0);
  m.gc_sweep(11.5);
  EXPECT_EQ(m.history_base(), 7u);
  EXPECT_EQ(m.history_end(), 9u);  // initial state + 8 events
}

// ---------------------------------------------------------------------------
// Token walk (DESIGN.md §6.2): one visit steps only the entries that target
// this monitor, and passes runs of uneventful local events in one bulk
// advance. Each scenario pins the exact entry state that walking one event
// at a time produces -- cut, dependency clock, certified stay-point and
// next target -- for a token M0 sends to M1 on F(P0.p && P1.p).
// ---------------------------------------------------------------------------

/// An entry of the q0 -> T transition as M1 receives it: P0's conjunct
/// verified (P0.p) at cut(0) = c0, P1's conjunct open, asking for P1's
/// event cut1 + 1.
TransitionEntry visiting_entry(const CompiledProperty& prop, std::uint32_t c0,
                               std::uint32_t cut1) {
  TransitionEntry e;
  e.transition_id = prop.outgoing(prop.initial_state()).at(0);
  e.set_width(2);
  e.cut(0) = c0;
  e.depend(0) = c0;
  e.gstate(0) = 0b01;
  e.conj(0) = ConjunctEval::kTrue;
  e.cut(1) = cut1;
  e.depend(1) = cut1;
  e.conj(1) = ConjunctEval::kUnset;
  e.next_target_process = 1;
  e.next_target_event = cut1 + 1;
  return e;
}

/// A token from M0 carrying `entries`, targeting their earliest P1 event.
Token visiting_token(std::vector<TransitionEntry> entries) {
  Token t;
  t.token_id = 1;
  t.parent = 0;
  t.parent_sn = 1;
  t.parent_vc = VectorClock{1, 0};
  t.next_target_process = 1;
  t.next_target_event = UINT32_MAX;
  for (const TransitionEntry& e : entries) {
    if (e.next_target_process == 1) {
      t.next_target_event = std::min(t.next_target_event, e.next_target_event);
    }
  }
  t.entries = std::move(entries);
  return t;
}

/// Feed M1 events sn = first..first+vcs.size()-1 with the given P0 clock
/// components and letters.
void feed_p1(MonitorProcess& m1, std::uint32_t first,
             const std::vector<std::uint32_t>& p0_clock,
             const std::vector<AtomSet>& letters) {
  for (std::size_t k = 0; k < p0_clock.size(); ++k) {
    const std::uint32_t sn = first + static_cast<std::uint32_t>(k);
    m1.on_local_event(
        make_event(1, sn, VectorClock{p0_clock[k], sn}, letters[k]),
        double(sn));
  }
}

void expect_slot(const TransitionEntry& e, std::size_t j, std::uint32_t cut,
                 std::uint32_t depend, std::uint32_t loop_cut) {
  SCOPED_TRACE("slot " + std::to_string(j));
  EXPECT_EQ(e.cut(j), cut);
  EXPECT_EQ(e.depend(j), depend);
  EXPECT_EQ(e.loop_cut(j), loop_cut);
}

TEST(MonitorProcessWalk, StayPointAtAnotherEntrysStopEvent) {
  // Event 3 receives P0's event 3: it stops B (P0 now lags in B's cut) but
  // is an ordinary consistent stay-point for A, which must be certified
  // there. Event 4 then stops A too, so 3 stays A's last stay-point.
  Fixture f("F(P0.p && P1.p)", 2);
  ASSERT_EQ(f.prop.outgoing(f.prop.initial_state()).size(), 1u);
  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  feed_p1(m1, 1, {0, 0, 3, 6}, {0, 0, 0, 0});
  m1.on_token(visiting_token({visiting_entry(f.prop, 5, 0),
                              visiting_entry(f.prop, 2, 0)}),
              5.0);

  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].next_target_process, 0);
  EXPECT_EQ(back[0].next_target_event, 3u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kUnset);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 5, 6, 5);
  expect_slot(a, 1, 4, 4, 3);
  EXPECT_EQ(a.conj(0), ConjunctEval::kUnset);
  EXPECT_EQ(a.next_target_process, 0);
  EXPECT_EQ(a.next_target_event, 6u);
  const TransitionEntry& b = back[0].entries.at(1);
  EXPECT_EQ(b.eval, EntryEval::kUnset);
  EXPECT_TRUE(b.loop_certified);
  expect_slot(b, 0, 2, 3, 2);
  expect_slot(b, 1, 3, 3, 2);
  EXPECT_EQ(b.next_target_process, 0);
  EXPECT_EQ(b.next_target_event, 3u);
}

TEST(MonitorProcessWalk, LaterTargetEntriesJoinMidSkip) {
  // A walks from event 1; C and D already covered P1 up to events 2 and 3
  // and join the walk there. C's first event is eventful (it receives P0's
  // event 2, beyond C's cut), so C was never certified anywhere; D joins
  // an uneventful run. Event 5 sets P1.p and enables A and D.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  feed_p1(m1, 1, {0, 0, 2, 2, 2}, {0, 0, 0, 0, 0b100});
  m1.on_token(visiting_token({visiting_entry(f.prop, 2, 0),
                              visiting_entry(f.prop, 1, 2),
                              visiting_entry(f.prop, 5, 3)}),
              6.0);

  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kTrue);
  expect_slot(a, 0, 2, 2, 2);
  expect_slot(a, 1, 5, 5, 4);
  const TransitionEntry& c = back[0].entries.at(1);
  EXPECT_EQ(c.eval, EntryEval::kUnset);
  EXPECT_FALSE(c.loop_certified);
  expect_slot(c, 0, 1, 2, 0);
  expect_slot(c, 1, 3, 3, 0);
  EXPECT_EQ(c.next_target_process, 0);
  EXPECT_EQ(c.next_target_event, 2u);
  const TransitionEntry& d = back[0].entries.at(2);
  EXPECT_EQ(d.eval, EntryEval::kTrue);
  EXPECT_TRUE(d.loop_certified);
  expect_slot(d, 0, 5, 5, 5);
  expect_slot(d, 1, 5, 5, 4);
}

TEST(MonitorProcessWalk, SkipToWindowEdgeParksThenResumes) {
  // Every retained event is uneventful: the walk parks at the window edge,
  // resumes over the next (again uneventful) event, parks again, and
  // completes on the event that sets P1.p.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  feed_p1(m1, 1, {0, 0, 0}, {0, 0, 0});
  m1.on_token(visiting_token({visiting_entry(f.prop, 0, 0)}), 4.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  EXPECT_TRUE(net1.tokens_to(0, /*parent=*/0).empty());

  feed_p1(m1, 4, {0}, {0});
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  EXPECT_TRUE(net1.tokens_to(0, /*parent=*/0).empty());

  feed_p1(m1, 5, {0}, {0b100});
  EXPECT_EQ(m1.num_waiting_tokens(), 0u);
  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kTrue);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 0, 0, 0);
  expect_slot(a, 1, 5, 5, 4);
}

TEST(MonitorProcessWalk, WindowEdgeKeepsTheBulkAdvance) {
  // M0 walks a token from M1 whose P1 conjunct (P1.p) is verified at P1's
  // event 1. P0's events 1-4 never set P0.p, and events 3-4 receive P1's
  // later events, so the cut is consistent through event 2 only. The walk
  // passes all four at once and parks; termination then sends the entry
  // home disabled, exposing what the bulk advance left: the last event's
  // clock merged, and the last consistent cut as the stay-point.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net0;
  MonitorProcess m0(0, &f.prop, &net0, {0, 0});
  const std::uint32_t p1_clock[] = {1, 1, 3, 4};
  for (std::uint32_t sn = 1; sn <= 4; ++sn) {
    m0.on_local_event(make_event(0, sn, VectorClock{sn, p1_clock[sn - 1]}, 0),
                      double(sn));
  }
  TransitionEntry e;
  e.transition_id = f.prop.outgoing(f.prop.initial_state()).at(0);
  e.set_width(2);
  e.cut(1) = 1;
  e.depend(1) = 1;
  e.gstate(1) = 0b100;
  e.conj(1) = ConjunctEval::kTrue;
  e.conj(0) = ConjunctEval::kUnset;
  e.next_target_process = 0;
  e.next_target_event = 1;
  Token t;
  t.token_id = (1ull << 32) | 1;
  t.parent = 1;
  t.parent_sn = 1;
  t.parent_vc = VectorClock{0, 1};
  t.entries.push_back(e);
  t.next_target_process = 0;
  t.next_target_event = 1;
  m0.on_token(t, 5.0);
  EXPECT_EQ(m0.num_waiting_tokens(), 1u);

  m0.on_local_termination(6.0);
  const auto back = net0.tokens_to(1, /*parent=*/1);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kFalse);
  EXPECT_EQ(a.next_target_event, 5u);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 4, 4, 2);
  expect_slot(a, 1, 1, 4, 1);
}

TEST(MonitorProcessWalk, SkipAcrossGcTrimmedWindow) {
  // Streaming GC trimmed M1's history below event 4 before the token
  // arrives: the entry asking for trimmed event 3 fails, and the other
  // walks the offset window from event 5 on, parks, and completes on
  // event 8.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorOptions options;
  options.streaming = true;
  options.gc_interval = 1000;  // manual sweeps only
  MonitorProcess m1(1, &f.prop, &net1, {0, 0}, options);
  feed_p1(m1, 1, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0});
  m1.on_history_floor(0, 4, /*epoch=*/0, 6.5);
  m1.gc_sweep(6.5);
  ASSERT_EQ(m1.history_base(), 4u);

  m1.on_token(visiting_token({visiting_entry(f.prop, 0, 4),
                              visiting_entry(f.prop, 0, 2)}),
              7.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  feed_p1(m1, 7, {0, 0}, {0, 0b100});
  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kTrue);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 0, 0, 0);
  expect_slot(a, 1, 8, 8, 7);
  const TransitionEntry& stale = back[0].entries.at(1);
  EXPECT_EQ(stale.eval, EntryEval::kFalse);
  EXPECT_FALSE(stale.loop_certified);
  expect_slot(stale, 1, 2, 2, 0);
}

// The bulk advance finds its stop by search (DESIGN.md §6.2): clock
// thresholds by galloping from the target, so the cases below use runs
// long enough to pass several doublings (probes at t, t+2, t+6, ..., t+62,
// then the window's last event).

TEST(MonitorProcessWalk, LongLetterRunEndsAtTheWindowEdge) {
  // Seventy uneventful events: one bulk advance reaches the window edge and
  // parks. Termination then sends the entry home disabled, exposing the
  // advance: cut and clock at the last event, which is also the last
  // consistent cut and so the stay-point.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  feed_p1(m1, 1, std::vector<std::uint32_t>(70, 0),
          std::vector<AtomSet>(70, 0));
  m1.on_token(visiting_token({visiting_entry(f.prop, 0, 0)}), 71.0);
  EXPECT_EQ(m1.num_waiting_tokens(), 1u);
  EXPECT_TRUE(net1.tokens_to(0, /*parent=*/0).empty());

  m1.on_local_termination(72.0);
  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kFalse);
  EXPECT_EQ(a.next_target_event, 71u);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 0, 0, 0);
  expect_slot(a, 1, 70, 70, 70);
}

TEST(MonitorProcessWalk, LowerClockCrossesAtFirstAndLastProbe) {
  // P0's clock in M1's events is 1 on events 1-69 and 6 on event 70, the
  // window's last event. A (cut(0) = 0) lags P0 at event 1, the first
  // probe of its search; B (cut(0) = 5) passes events 2-69 and lags P0 at
  // event 70, the last probe. Both leave for P0 and the token goes home.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorProcess m1(1, &f.prop, &net1, {0, 0});
  std::vector<std::uint32_t> p0_clock(70, 1);
  p0_clock.back() = 6;
  feed_p1(m1, 1, p0_clock, std::vector<AtomSet>(70, 0));
  m1.on_token(visiting_token({visiting_entry(f.prop, 0, 0),
                              visiting_entry(f.prop, 5, 0)}),
              71.0);

  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kUnset);
  EXPECT_FALSE(a.loop_certified);
  expect_slot(a, 0, 0, 1, 0);
  expect_slot(a, 1, 1, 1, 0);
  EXPECT_EQ(a.next_target_process, 0);
  EXPECT_EQ(a.next_target_event, 1u);
  const TransitionEntry& b = back[0].entries.at(1);
  EXPECT_EQ(b.eval, EntryEval::kUnset);
  EXPECT_TRUE(b.loop_certified);
  expect_slot(b, 0, 5, 6, 5);
  expect_slot(b, 1, 70, 70, 69);
  EXPECT_EQ(b.next_target_process, 0);
  EXPECT_EQ(b.next_target_event, 6u);
}

TEST(MonitorProcessWalk, ConsistencyIntervalClosesMidRun) {
  // M0 walks a token from M1 whose entry already depends on P0's event 5
  // (so cuts through events 1-4 are inconsistent) and has P1 at event 1.
  // P0's events 23-40 receive P1's event 3, which closes the consistent
  // interval again: cuts are consistent exactly through events 5-22. One
  // bulk advance passes all forty events and parks; its stay-point is 22,
  // the interval's last cut.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net0;
  MonitorProcess m0(0, &f.prop, &net0, {0, 0});
  for (std::uint32_t sn = 1; sn <= 40; ++sn) {
    m0.on_local_event(
        make_event(0, sn, VectorClock{sn, sn <= 22 ? 1u : 3u}, 0), double(sn));
  }
  TransitionEntry e;
  e.transition_id = f.prop.outgoing(f.prop.initial_state()).at(0);
  e.set_width(2);
  e.depend(0) = 5;
  e.cut(1) = 1;
  e.depend(1) = 1;
  e.gstate(1) = 0b100;
  e.conj(1) = ConjunctEval::kTrue;
  e.conj(0) = ConjunctEval::kUnset;
  e.next_target_process = 0;
  e.next_target_event = 1;
  Token t;
  t.token_id = (1ull << 32) | 1;
  t.parent = 1;
  t.parent_sn = 1;
  t.parent_vc = VectorClock{0, 1};
  t.entries.push_back(e);
  t.next_target_process = 0;
  t.next_target_event = 1;
  m0.on_token(t, 41.0);
  EXPECT_EQ(m0.num_waiting_tokens(), 1u);

  m0.on_local_termination(42.0);
  const auto back = net0.tokens_to(1, /*parent=*/1);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kFalse);
  EXPECT_EQ(a.next_target_event, 41u);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 40, 40, 22);
  expect_slot(a, 1, 1, 3, 1);
}

TEST(MonitorProcessWalk, SearchAcrossGcTrimmedWindow) {
  // GC trimmed M1's history below event 40 of 100. The entry walks from
  // event 41 and P0's clock passes its cut at event 81: the search runs on
  // the offset window, the advance certifies event 80, and the step at 81
  // sends the entry to P0.
  Fixture f("F(P0.p && P1.p)", 2);
  CapturingNetwork net1;
  MonitorOptions options;
  options.streaming = true;
  options.gc_interval = 1000;  // manual sweeps only
  MonitorProcess m1(1, &f.prop, &net1, {0, 0}, options);
  std::vector<std::uint32_t> p0_clock(100, 0);
  for (std::size_t k = 80; k < p0_clock.size(); ++k) p0_clock[k] = 3;
  feed_p1(m1, 1, p0_clock, std::vector<AtomSet>(100, 0));
  m1.on_history_floor(0, 40, /*epoch=*/0, 100.5);
  m1.gc_sweep(100.5);
  ASSERT_EQ(m1.history_base(), 40u);

  m1.on_token(visiting_token({visiting_entry(f.prop, 2, 40)}), 101.0);
  const auto back = net1.tokens_to(0, /*parent=*/0);
  ASSERT_EQ(back.size(), 1u);
  const TransitionEntry& a = back[0].entries.at(0);
  EXPECT_EQ(a.eval, EntryEval::kUnset);
  EXPECT_TRUE(a.loop_certified);
  expect_slot(a, 0, 2, 3, 2);
  expect_slot(a, 1, 81, 81, 80);
  EXPECT_EQ(a.next_target_process, 0);
  EXPECT_EQ(a.next_target_event, 3u);
}

TEST(MonitorProcessUnit, StatsAggregate) {
  MonitorStats a;
  a.tokens_created = 3;
  a.global_views_created = 5;
  a.max_pending = 7;
  MonitorStats b;
  b.tokens_created = 2;
  b.global_views_created = 1;
  b.max_pending = 4;
  b.finish_time = 9.0;
  a += b;
  EXPECT_EQ(a.tokens_created, 5u);
  EXPECT_EQ(a.global_views_created, 6u);
  EXPECT_EQ(a.max_pending, 7u);
  EXPECT_DOUBLE_EQ(a.finish_time, 9.0);
  EXPECT_NE(a.to_string().find("tokens=5"), std::string::npos);
}

}  // namespace
}  // namespace decmon

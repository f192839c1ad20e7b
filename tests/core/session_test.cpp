#include "decmon/core/session.hpp"

#include <gtest/gtest.h>

#include "decmon/core/properties.hpp"
#include "decmon/lattice/event_log.hpp"

namespace decmon {
namespace {

TraceParams small_params(int n, std::uint64_t seed = 11) {
  TraceParams p;
  p.num_processes = n;
  p.internal_events = 6;
  p.seed = seed;
  return p;
}

TEST(Session, FromTextBuildsWorkingSession) {
  AtomRegistry reg = paper::make_registry(2);
  MonitorSession s = MonitorSession::from_text("F(P0.p && P1.p)",
                                               std::move(reg));
  EXPECT_EQ(s.automaton().num_states(), 2);
  EXPECT_EQ(s.property().num_processes(), 2);
}

TEST(Session, RunProducesFinishedVerdict) {
  AtomRegistry reg = paper::make_registry(2);
  MonitorSession s = MonitorSession::from_text("F(P0.p && P1.p)",
                                               std::move(reg));
  SystemTrace trace = generate_trace(small_params(2));
  force_final_all_true(trace);
  RunResult r = s.run(trace);
  EXPECT_TRUE(r.verdict.all_finished);
  EXPECT_GT(r.program_events, 0u);
  EXPECT_GT(r.program_end, 0.0);
  // All processes end with p = q = 1, so F(all p) must be satisfied on
  // every path: the verdict set is exactly {TRUE}.
  EXPECT_TRUE(r.verdict.satisfied());
}

TEST(Session, VerdictContractAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AtomRegistry reg = paper::make_registry(2);
    MonitorSession s =
        MonitorSession::from_text("G((P0.p) U (P1.p))", std::move(reg));
    SystemTrace trace = generate_trace(small_params(2, seed));
    OracleResult oracle = s.oracle(trace);
    RunResult r = s.run(trace);
    EXPECT_TRUE(r.verdict.all_finished);
    for (Verdict v : oracle.verdicts) {
      EXPECT_TRUE(r.verdict.verdicts.count(v)) << "seed " << seed;
    }
    for (Verdict v : r.verdict.verdicts) {
      if (v != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(v)) << "seed " << seed;
      }
    }
  }
}

TEST(Session, CentralizedMatchesOracleExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AtomRegistry reg = paper::make_registry(3);
    MonitorSession s = MonitorSession::from_text(
        "G((P0.p) U (P1.p && P2.p))", std::move(reg));
    SystemTrace trace = generate_trace(small_params(3, seed));
    OracleResult oracle = s.oracle(trace);
    RunResult r = s.run_centralized(trace);
    EXPECT_TRUE(r.verdict.all_finished) << "seed " << seed;
    EXPECT_EQ(r.verdict.verdicts, oracle.verdicts) << "seed " << seed;
    EXPECT_EQ(std::set<int>(r.verdict.states.begin(), r.verdict.states.end()),
              oracle.final_states)
        << "seed " << seed;
  }
}

TEST(Session, CentralizedForwardsEveryRemoteEvent) {
  AtomRegistry reg = paper::make_registry(3);
  MonitorSession s =
      MonitorSession::from_text("F(P0.p && P1.p && P2.p)", std::move(reg));
  SystemTrace trace = generate_trace(small_params(3));
  RunResult r = s.run_centralized(trace);
  // Every event of a non-central process crosses the network.
  SimRuntime probe(trace, &s.registry());
  probe.run();
  std::uint64_t remote_events = 0;
  for (int p = 1; p < 3; ++p) {
    remote_events += probe.history()[static_cast<std::size_t>(p)].size() - 1;
  }
  EXPECT_GE(r.monitor_messages, remote_events);
}

TEST(Session, DecentralizedSendsFewerMessagesThanCentralized) {
  // The headline comparison: decentralized monitoring avoids shipping every
  // event to one node.
  AtomRegistry reg = paper::make_registry(4);
  MonitorSession s = MonitorSession::from_text(
      paper::formula_text(paper::Property::kB, 4), std::move(reg));
  TraceParams params = small_params(4);
  params.internal_events = 15;
  SystemTrace trace = generate_trace(params);
  RunResult dec = s.run(trace);
  RunResult cen = s.run_centralized(trace);
  EXPECT_LT(dec.monitor_messages, cen.monitor_messages);
}

TEST(Session, DelayFormulaMatchesPaperDefinition) {
  RunResult r;
  r.program_end = 10.0;
  r.monitor_end = 12.0;
  r.total_global_views = 4;
  // ((2 / 10) * 100) / 4 = 5.
  EXPECT_DOUBLE_EQ(r.delay_time_percent_per_view(), 5.0);
  r.monitor_end = 9.0;  // monitor finished before program: no extra time
  EXPECT_DOUBLE_EQ(r.delay_time_percent_per_view(), 0.0);
}

TEST(Session, RunsArePerfectlyReproducible) {
  AtomRegistry reg = paper::make_registry(3);
  MonitorSession s = MonitorSession::from_text(
      paper::formula_text(paper::Property::kC, 3), std::move(reg));
  SystemTrace trace = generate_trace(small_params(3));
  RunResult a = s.run(trace);
  RunResult b = s.run(trace);
  EXPECT_EQ(a.monitor_messages, b.monitor_messages);
  EXPECT_EQ(a.total_global_views, b.total_global_views);
  EXPECT_EQ(a.verdict.verdicts, b.verdict.verdicts);
  EXPECT_EQ(a.monitor_end, b.monitor_end);
}

TEST(Session, PaperPropertySuiteRunsAtScale) {
  // Smoke: all six properties on 4 processes complete and stay finished.
  for (paper::Property p : paper::kAllProperties) {
    MonitorSession s(paper::shared_property(p, 4, paper::make_registry(4)));
    SystemTrace trace = generate_trace(small_params(4));
    RunResult r = s.run(trace);
    EXPECT_TRUE(r.verdict.all_finished) << paper::name(p);
  }
}


TEST(Session, OfflineReplayMatchesContract) {
  // Record once, analyze offline (6.2.1): the replayed decentralized run
  // over the event-log round trip satisfies the oracle contract.
  AtomRegistry reg = paper::make_registry(3);
  MonitorSession s = MonitorSession::from_text(
      "G((P0.p) U (P1.p && P2.p))", std::move(reg));
  SystemTrace trace = generate_trace(small_params(3, 21));

  SimRuntime sim(trace, &s.registry());
  sim.run();
  Computation recorded(sim.history());
  Computation loaded =
      relabel(computation_from_event_log(to_event_log(recorded)),
              s.registry());
  OracleResult oracle = oracle_evaluate(loaded, s.automaton());

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunResult r = s.replay(loaded, seed);
    EXPECT_TRUE(r.verdict.all_finished) << "seed " << seed;
    for (Verdict v : oracle.verdicts) {
      EXPECT_TRUE(r.verdict.verdicts.count(v)) << "seed " << seed;
    }
    for (Verdict v : r.verdict.verdicts) {
      if (v != Verdict::kUnknown) {
        EXPECT_TRUE(oracle.verdicts.count(v)) << "seed " << seed;
      }
    }
  }
}

TEST(Session, ReplayCountsMessages) {
  AtomRegistry reg = paper::make_registry(2);
  MonitorSession s =
      MonitorSession::from_text("F(P0.p && P1.p)", std::move(reg));
  SystemTrace trace = generate_trace(small_params(2));
  force_final_all_true(trace);
  SimRuntime sim(trace, &s.registry());
  sim.run();
  Computation comp(sim.history());
  RunResult r = s.replay(comp, 5);
  EXPECT_EQ(r.program_events, comp.total_events());
  EXPECT_GT(r.monitor_messages, 0u);
  EXPECT_TRUE(r.verdict.satisfied());
}

}  // namespace
}  // namespace decmon

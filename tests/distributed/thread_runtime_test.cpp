#include "decmon/distributed/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/distributed/faulty_network.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/ltl/parser.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"
#include "decmon/monitor/token.hpp"

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

ThreadConfig fast_config() {
  ThreadConfig c;
  c.time_scale = 0.0005;  // 3 s trace waits -> 1.5 ms wall
  return c;
}

TEST(ThreadRuntime, RunsToQuiescenceWithoutMonitors) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.program_events(),
            static_cast<std::uint64_t>(trace.total_events()));
}

TEST(ThreadRuntime, HistoryIsAValidComputation) {
  AtomRegistry reg = paper::make_registry(3);
  SystemTrace trace = generate_trace(small_params(3));
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  Computation comp(rt.history());
  EXPECT_TRUE(comp.consistent(comp.top()));
  for (const auto& hist : rt.history()) {
    for (std::size_t i = 1; i < hist.size(); ++i) {
      EXPECT_TRUE(hist[i - 1].vc.happened_before(hist[i].vc));
    }
  }
}

TEST(ThreadRuntime, MonitorsFinishAndSatisfyContract) {
  // Full end-to-end under real threads: monitors drain, and the verdict set
  // satisfies the contract against the oracle of the *recorded* history
  // (thread schedules vary run to run; the oracle is recomputed per run).
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    FormulaPtr f = parse_ltl("G((P0.p) U (P1.p && P2.p))", reg);
    MonitorAutomaton m = synthesize_monitor(f);
    CompiledProperty prop(&m, &reg);
    SystemTrace trace = generate_trace(
        small_params(3, 100 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, fast_config());
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

TEST(ThreadRuntime, AppMessageCountMatchesTrace) {
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  int comm_actions = 0;
  for (const auto& pt : trace.procs) {
    comm_actions += pt.count(TraceAction::Kind::kComm);
  }
  ThreadRuntime rt(trace, &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(),
            static_cast<std::uint64_t>(comm_actions));  // n-1 = 1 receiver
}

TEST(ThreadRuntime, NoCommTraceNeedsNoMessages) {
  AtomRegistry reg = paper::make_registry(2);
  TraceParams params = small_params(2);
  params.comm_enabled = false;
  ThreadRuntime rt(generate_trace(params), &reg, fast_config());
  rt.run();
  EXPECT_EQ(rt.app_messages_sent(), 0u);
}

// Adverse configs: the counter-based quiescence proof must not depend on
// timing headroom.

TEST(ThreadRuntime, ZeroTimeScaleStormSatisfiesContract) {
  // time_scale = 0 collapses every wait and latency to "now": all actions
  // fire immediately, all messages are instantly ripe -- maximum scheduler
  // pressure, zero settle time for a heuristic to hide behind.
  ThreadConfig storm;
  storm.time_scale = 0.0;
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    FormulaPtr f = parse_ltl("G((P0.p) U (P1.p && P2.p))", reg);
    MonitorAutomaton m = synthesize_monitor(f);
    CompiledProperty prop(&m, &reg);
    SystemTrace trace = generate_trace(
        small_params(3, 500 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, storm);
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
  }
}

TEST(ThreadRuntime, LargeLatencySigmaSatisfiesContract) {
  // Heavily dispersed latencies: deliveries arrive far out of their send
  // order across channels (per-channel FIFO still holds).
  ThreadConfig jittery = fast_config();
  jittery.latency_mu = 0.02;
  jittery.latency_sigma = 2.0;
  AtomRegistry reg = paper::make_registry(3);
  FormulaPtr f = parse_ltl("G((P0.p) U (P1.p && P2.p))", reg);
  MonitorAutomaton m = synthesize_monitor(f);
  CompiledProperty prop(&m, &reg);
  SystemTrace trace = generate_trace(small_params(3, 42));

  ThreadRuntime rt(trace, &reg, jittery);
  DecentralizedMonitor dm(&prop, &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  EXPECT_TRUE(dm.all_finished());
  Computation comp(rt.history());
  OracleResult oracle = oracle_evaluate(comp, m);
  SystemVerdict v = dm.result();
  for (Verdict x : oracle.verdicts) EXPECT_TRUE(v.verdicts.count(x));
}

TEST(ThreadRuntime, QuiescenceIsExactNoWorkAfterRunReturns) {
  // Regression for the deleted sleep-settle loop: run() returning is a
  // proof of quiescence (outstanding work counter hit zero and every node
  // thread joined), so no counter may advance afterwards.
  AtomRegistry reg = paper::make_registry(3);
  FormulaPtr f = parse_ltl("G((P0.p) U (P1.p && P2.p))", reg);
  MonitorAutomaton m = synthesize_monitor(f);
  CompiledProperty prop(&m, &reg);
  SystemTrace trace = generate_trace(small_params(3, 77));

  ThreadRuntime rt(trace, &reg, fast_config());
  DecentralizedMonitor dm(&prop, &rt,
                          initial_letters_of(reg, rt.initial_states()));
  rt.set_hooks(&dm);
  rt.run();

  const std::uint64_t events = rt.program_events();
  const std::uint64_t sent = rt.monitor_messages_sent();
  const std::uint64_t processed = rt.monitor_messages_processed();
  EXPECT_TRUE(dm.all_finished());
  EXPECT_GE(processed, sent);  // self-sends are processed but not "sent"
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rt.program_events(), events);
  EXPECT_EQ(rt.monitor_messages_sent(), sent);
  EXPECT_EQ(rt.monitor_messages_processed(), processed);
}

TEST(ThreadRuntime, FaultyNetworkOverThreadsSatisfiesContract) {
  // The full adversarial stack under real threads: delay spikes, reordering,
  // duplication and bounded drop-with-redelivery on every monitor channel.
  FaultConfig fc;
  fc.delay_prob = 0.2;
  fc.delay_mu = 0.2;
  fc.delay_sigma = 0.1;
  fc.reorder_prob = 0.3;
  fc.dup_prob = 0.15;
  fc.drop_prob = 0.15;
  fc.redelivery_delay = 0.1;
  fc.seed = 11;
  for (int round = 0; round < 3; ++round) {
    AtomRegistry reg = paper::make_registry(3);
    FormulaPtr f = parse_ltl("G((P0.p) U (P1.p && P2.p))", reg);
    MonitorAutomaton m = synthesize_monitor(f);
    CompiledProperty prop(&m, &reg);
    SystemTrace trace = generate_trace(
        small_params(3, 900 + static_cast<std::uint64_t>(round)));

    ThreadRuntime rt(trace, &reg, fast_config());
    FaultyNetwork net(&rt, 3, fc);
    DecentralizedMonitor dm(&prop, &net,
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

TEST(ThreadRuntime, OffThreadSendsAreSafeAndCounted) {
  // Sends from outside any node thread race against the nodes' own sends on
  // the same channels; the per-node send mutex must make both the latency
  // stream and the FIFO clamp safe, and the quiescence counter must cover
  // the injected messages (run() may not return before processing them).
  AtomRegistry reg = paper::make_registry(2);
  SystemTrace trace = generate_trace(small_params(2));
  ThreadRuntime rt(trace, &reg, fast_config());

  auto inject = [&rt](int count) {
    for (int i = 0; i < count; ++i) {
      auto payload = std::make_unique<TerminationMessage>();
      payload->process = 0;
      payload->last_sn = 0;
      rt.send(MonitorMessage{0, 1, std::move(payload)});
    }
  };
  // Pre-run injection, from a foreign thread: the quiescence counter covers
  // these messages, so run() cannot return before processing all of them.
  std::thread pre(inject, 25);
  pre.join();
  // Concurrent injection races the node threads on the sender's channel
  // state (latency RNG + FIFO clamps); messages landing after quiescence
  // may stay unprocessed, but the send path must stay safe.
  std::thread during(inject, 25);
  rt.run();
  during.join();
  // No hooks attached: messages are drained and dropped on receipt.
  EXPECT_EQ(rt.monitor_messages_sent(), 50u);
  EXPECT_GE(rt.monitor_messages_processed(), 25u);
}

TEST(ThreadRuntime, AotGeneratedPropertyMatchesSynthesisVerdicts) {
  // Generated-vs-synthesized under real threads: a monitor admitted through
  // the AOT rows of the property store and a runtime-synthesized property
  // both meet the contract on the history their own run recorded (each
  // real run records its own computation, so their verdict sets may
  // legitimately differ).
  for (paper::Property p : paper::kAllProperties) {
    SCOPED_TRACE(paper::name(p));
    const int n = 3;
    const std::uint64_t seed = 2015;  // first equivalence-golden seed
    SystemTrace trace = generate_trace(paper::experiment_params(p, n, seed));
    force_final_all_true(trace);

    AtomRegistry reg = paper::make_registry(n);
    MonitorAutomaton m = paper::build_automaton_uncached(p, n, reg);
    CompiledProperty prop(&m, &reg);
    ThreadRuntime synth_rt(trace, &reg, fast_config());
    DecentralizedMonitor synth_dm(
        &prop, &synth_rt, initial_letters_of(reg, synth_rt.initial_states()));
    synth_rt.set_hooks(&synth_dm);
    synth_rt.run();
    EXPECT_TRUE(testing::run_meets_contract(synth_dm.result(),
                                            synth_rt.history(), m));

    SharedProperty artifact =
        paper::shared_property(p, n, paper::make_registry(n));
    ThreadRuntime aot_rt(trace, &artifact->registry(), fast_config());
    DecentralizedMonitor aot_dm(
        property_handle(artifact), &aot_rt,
        initial_letters_of(artifact->registry(), aot_rt.initial_states()));
    aot_rt.set_hooks(&aot_dm);
    aot_rt.run();
    EXPECT_TRUE(testing::run_meets_contract(aot_dm.result(), aot_rt.history(),
                                            artifact->automaton()));
  }
}

}  // namespace
}  // namespace decmon

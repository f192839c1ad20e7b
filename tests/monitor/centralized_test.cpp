#include "decmon/monitor/centralized_monitor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "../common/paper_example.hpp"
#include "../common/random_computation.hpp"
#include "decmon/automata/ltl3_monitor.hpp"
#include "decmon/distributed/replay_runtime.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/ltl/parser.hpp"

namespace decmon {
namespace {

using testing::PaperExample;

std::vector<AtomSet> initial_letters(const Computation& comp) {
  std::vector<AtomSet> letters;
  for (int p = 0; p < comp.num_processes(); ++p) {
    letters.push_back(comp.event(p, 0).letter);
  }
  return letters;
}

TEST(Centralized, MatchesOracleOnPaperExample) {
  PaperExample ex;
  FormulaPtr psi =
      parse_ltl("G((x1 >= 5) -> ((x2 >= 15) U (x1 == 10)))", ex.registry);
  MonitorAutomaton m = synthesize_monitor(psi);
  CompiledProperty prop(&m, &ex.registry);
  OracleResult oracle = oracle_evaluate(ex.computation, m);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ReplayRuntime driver;
    CentralizedMonitor central(&prop, &driver,
                               initial_letters(ex.computation));
    driver.run(ex.computation, central, seed);
    EXPECT_TRUE(central.finished()) << "seed " << seed;
    EXPECT_EQ(central.verdicts(), oracle.verdicts) << "seed " << seed;
    EXPECT_EQ(central.final_states(), oracle.final_states) << "seed " << seed;
    EXPECT_EQ(central.explored_cuts(), oracle.lattice_nodes);
  }
}

// The centralized monitor is exactly the oracle's DP run online: state sets
// at the top cut agree on random computations, for every delivery schedule.
TEST(CentralizedProperty, AlwaysMatchesOracle) {
  std::mt19937_64 rng(606);
  AtomRegistry reg = testing::standard_registry(2);
  const auto props = testing::property_suite_2();
  for (int iter = 0; iter < 60; ++iter) {
    Computation comp = testing::random_computation(rng, 2, reg, 4);
    MonitorAutomaton m =
        synthesize_monitor(parse_ltl(props[iter % props.size()], reg));
    CompiledProperty prop(&m, &reg);
    OracleResult oracle = oracle_evaluate(comp, m);
    ReplayRuntime driver;
    CentralizedMonitor central(&prop, &driver, initial_letters(comp));
    driver.run(comp, central, rng());
    EXPECT_TRUE(central.finished());
    EXPECT_EQ(central.verdicts(), oracle.verdicts)
        << props[iter % props.size()];
    EXPECT_EQ(central.final_states(), oracle.final_states);
  }
}

TEST(Centralized, CountsForwardedMessages) {
  PaperExample ex;
  FormulaPtr psi = parse_ltl("F(x1 >= 5)", ex.registry);
  MonitorAutomaton m = synthesize_monitor(psi);
  CompiledProperty prop(&m, &ex.registry);
  ReplayRuntime driver;
  CentralizedMonitor central(&prop, &driver, initial_letters(ex.computation),
                             /*central_node=*/0);
  driver.run(ex.computation, central, 1);
  // P1 is central: only P2's 4 events cross the network.
  EXPECT_EQ(central.forwarded_messages(), 4u);
}

TEST(Centralized, LatticeCapThrows) {
  // Two independent processes with many events: the cut count explodes
  // beyond a tiny cap.
  AtomRegistry reg = testing::standard_registry(2);
  ComputationBuilder b(2, &reg);
  for (int i = 0; i < 12; ++i) {
    b.internal(0, {1, 0});
    b.internal(1, {1, 0});
  }
  Computation comp = b.build();
  FormulaPtr f = parse_ltl("F(P0.p && P1.q)", reg);
  MonitorAutomaton m = synthesize_monitor(f);
  CompiledProperty prop(&m, &reg);
  ReplayRuntime driver;
  CentralizedMonitor central(&prop, &driver, initial_letters(comp), 0,
                             /*max_cuts=*/50);
  EXPECT_THROW(driver.run(comp, central, 1), std::length_error);
}

TEST(Centralized, DeclaresVerdictBeforeCompletion) {
  // A violation reachable early is declared even before all events arrive.
  AtomRegistry reg = testing::standard_registry(2);
  ComputationBuilder b(2, &reg);
  b.internal(0, {0, 0});
  b.internal(1, {0, 0});
  Computation comp = b.build();
  FormulaPtr f = parse_ltl("G(P0.p || P1.p)", reg);  // violated at bottom
  MonitorAutomaton m = synthesize_monitor(f);
  CompiledProperty prop(&m, &reg);
  ReplayRuntime driver;
  CentralizedMonitor central(&prop, &driver, initial_letters(comp));
  // Verdict known from the initial state alone, before any event arrives.
  EXPECT_TRUE(central.verdicts().count(Verdict::kFalse));
}

}  // namespace
}  // namespace decmon

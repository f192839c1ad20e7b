// Shared test helper: the DESIGN.md §3 contract between a monitored run and
// the lattice oracle evaluated on that run's own recorded history.
//
// A real runtime (threads, sockets) records its own computation: where a
// receive lands among a node's actions depends on wall-clock timing, so two
// runs of one trace may yield different computations and different verdict
// sets. Tests over real runtimes therefore check each run against the
// oracle on rt.history(), exactly as the schedule fuzzer does, never
// against another run's verdicts.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/distributed/event.hpp"
#include "decmon/lattice/computation.hpp"
#include "decmon/lattice/oracle.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"

namespace decmon::testing {

/// Every oracle verdict is reported, and every definite reported verdict
/// lies on some lattice path (the oracle has it too).
inline ::testing::AssertionResult verdicts_meet_contract(
    const std::set<Verdict>& reported, const std::set<Verdict>& oracle) {
  for (Verdict v : oracle) {
    if (!reported.count(v)) {
      return ::testing::AssertionFailure()
             << "oracle verdict " << to_string(v) << " was not reported";
    }
  }
  for (Verdict v : reported) {
    if (v != Verdict::kUnknown && !oracle.count(v)) {
      return ::testing::AssertionFailure()
             << "reported verdict " << to_string(v)
             << " lies on no lattice path";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The whole contract for one finished run: the monitors drained, and their
/// verdicts meet the oracle on the run's recorded history.
inline ::testing::AssertionResult run_meets_contract(
    const SystemVerdict& result,
    const std::vector<std::vector<Event>>& history,
    const MonitorAutomaton& automaton) {
  if (!result.all_finished) {
    return ::testing::AssertionFailure() << "monitors did not drain";
  }
  return verdicts_meet_contract(
      result.verdicts,
      oracle_evaluate(Computation(history), automaton).verdicts);
}

}  // namespace decmon::testing

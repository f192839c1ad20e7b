// monitor_log: offline analysis of a recorded computation (§6.2.1's
// offline-monitoring configuration). Takes an event log produced by
// tools/record_trace (or your own instrumentation) and a property, and
// evaluates it two ways:
//   * the omniscient lattice oracle (ground truth, exponential),
//   * a replayed decentralized run (what the online monitors would say).
//
//   monitor_log <log-file> <formula> [--oracle-only] [seed]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "decmon/decmon.hpp"

int main(int argc, char** argv) {
  using namespace decmon;
  if (argc < 3) {
    std::cerr << "usage: " << argv[0]
              << " <log-file> <formula> [--oracle-only] [seed]\n";
    return 2;
  }
  const bool oracle_only =
      argc > 3 && std::strcmp(argv[3], "--oracle-only") == 0;
  const std::uint64_t seed =
      argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 1;

  Computation raw = load_event_log(argv[1]);
  // Variables are positional in the log; expose them under the case-study
  // names p (variable 0) and q (variable 1).
  AtomRegistry reg(raw.num_processes());
  for (int p = 0; p < raw.num_processes(); ++p) {
    reg.declare_variable(p, "p");
    reg.declare_variable(p, "q");
  }
  FormulaPtr formula;
  try {
    formula = parse_ltl(argv[2], reg);
  } catch (const ParseError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 1;
  }
  MonitorAutomaton m = synthesize_monitor(formula);
  MonitorSession session(std::move(reg), std::move(m));
  Computation comp = relabel(raw, session.registry());
  std::cout << "processes: " << comp.num_processes()
            << ", events: " << comp.total_events() << "\n";

  OracleResult oracle = oracle_evaluate(comp, session.automaton());
  std::cout << "oracle verdicts: ";
  for (Verdict v : oracle.verdicts) std::cout << to_string(v) << ' ';
  std::cout << "(" << oracle.lattice_nodes << " consistent cuts, "
            << oracle.pivot_states << " pivot states)\n";
  if (oracle_only) return 0;

  RunResult r = session.replay(comp, seed);
  std::cout << "replayed decentralized verdicts: ";
  for (Verdict v : r.verdict.verdicts) std::cout << to_string(v) << ' ';
  std::cout << "\nmonitors drained: "
            << (r.verdict.all_finished ? "yes" : "no")
            << ", monitoring messages: " << r.monitor_messages << "\n";
  const MonitorStats& agg = r.verdict.aggregate;
  std::cout << "wire: " << agg.frames_sent << " frames, " << agg.bytes_sent
            << " bytes sent\n";
  return r.verdict.all_finished ? 0 : 1;
}

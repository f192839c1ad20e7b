// Future-work 7.2.1 made quantitative: how much does a bounded clock skew
// buy? For the paper's workload (property C, 3 processes), the oracle runs
// over the happened-before order refined by a skew bound epsilon; the
// lattice (and with it the exploration any monitor must cover) collapses
// as epsilon approaches the inter-event time (EvtMu = 3 s).
#include <cstdio>

#include "decmon/decmon.hpp"

int main() {
  using namespace decmon;

  AtomRegistry reg = paper::make_registry(3);
  const SharedProperty property =
      paper::shared_property(paper::Property::kC, 3, reg);
  TraceParams params =
      paper::experiment_params(paper::Property::kC, 3, 2015, 3.0, true, 12);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);
  SimRuntime sim(trace, &reg);
  sim.run();
  Computation comp(sim.history());

  std::printf("Property C, 3 processes, %llu events, EvtMu = 3s\n",
              (unsigned long long)comp.total_events());
  std::printf("%-14s %14s %14s %10s\n", "epsilon (s)", "consistent cuts",
              "pivot states", "verdicts");
  const double epsilons[] = {1e9, 10.0, 3.0, 1.0, 0.3, 0.05, 0.001};
  for (double eps : epsilons) {
    OracleResult r = oracle_evaluate_timed(TimedComputation(&comp, eps),
                                           property->automaton());
    std::string verdicts;
    for (Verdict v : r.verdicts) verdicts += to_string(v) + " ";
    std::printf("%-14g %14llu %14llu %10s\n", eps,
                (unsigned long long)r.lattice_nodes,
                (unsigned long long)r.pivot_states, verdicts.c_str());
  }
  std::printf(
      "\n(epsilon >= the inter-event time changes nothing; epsilon below "
      "the\n message latency serializes the run -- the 'NTP-connected "
      "smartphones'\n regime the paper's 7.2.1 discussion describes)\n");
  return 0;
}

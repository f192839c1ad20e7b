// Table 5.1 + Fig. 5.1: number of transitions per monitor automaton, for
// properties A-F over 2-5 processes, split into outgoing and self-loop
// transitions. Also prints, for comparison, the sizes of our synthesized
// and fully minimized monitors (the thesis deliberately uses the unreduced
// automata; see DESIGN.md / EXPERIMENTS.md).
//
//   table_5_1_transitions [--dump]   -- with --dump, also emits the DOT
//                                       graphs of the 2-process automata
//                                       (Figs. 2.3 / 5.2 / 5.3).
#include <cstdio>
#include <cstring>

#include "decmon/decmon.hpp"

int main(int argc, char** argv) {
  using namespace decmon;
  const bool dump = argc > 1 && std::strcmp(argv[1], "--dump") == 0;

  std::printf("Table 5.1: transitions per automaton (paper-shaped build)\n");
  std::printf("%-9s", "Property");
  for (int n = 2; n <= 5; ++n) {
    std::printf(" | n=%d total out self", n);
  }
  std::printf("\n");
  for (paper::Property p : paper::kAllProperties) {
    std::printf("%-9s", paper::name(p).c_str());
    for (int n = 2; n <= 5; ++n) {
      const SharedProperty art =
          paper::shared_property(p, n, paper::make_registry(n));
      const MonitorAutomaton& m = art->automaton();
      std::printf(" | %8d %3d %4d", m.count_total(), m.count_outgoing(),
                  m.count_self_loops());
    }
    std::printf("\n");
  }

  std::printf(
      "\nSynthesized + minimized monitors (states / transitions after "
      "cube-minimal splitting):\n");
  std::printf("%-9s", "Property");
  for (int n = 2; n <= 5; ++n) std::printf(" | n=%d st tot", n);
  std::printf("\n");
  for (paper::Property p : paper::kAllProperties) {
    std::printf("%-9s", paper::name(p).c_str());
    for (int n = 2; n <= 5; ++n) {
      AtomRegistry reg = paper::make_registry(n);
      MonitorAutomaton m =
          synthesize_monitor(paper::formula(p, n, reg));
      std::printf(" | %5d %5d", m.num_states(), m.count_total());
    }
    std::printf("\n");
  }

  std::printf("\nFig. 5.1a (all transitions) series:\n");
  for (paper::Property p : paper::kAllProperties) {
    std::printf("Property %s:", paper::name(p).c_str());
    for (int n = 2; n <= 5; ++n) {
      AtomRegistry reg = paper::make_registry(n);
      std::printf(" %d",
                  paper::shared_property(p, n, reg)->automaton().count_total());
    }
    std::printf("\n");
  }
  std::printf("Fig. 5.1b (outgoing transitions) series:\n");
  for (paper::Property p : paper::kAllProperties) {
    std::printf("Property %s:", paper::name(p).c_str());
    for (int n = 2; n <= 5; ++n) {
      AtomRegistry reg = paper::make_registry(n);
      std::printf(" %d", paper::shared_property(p, n, reg)
                             ->automaton()
                             .count_outgoing());
    }
    std::printf("\n");
  }

  if (dump) {
    for (paper::Property p : paper::kAllProperties) {
      AtomRegistry reg = paper::make_registry(2);
      std::printf("\n// Property %s with 2 processes\n%s",
                  paper::name(p).c_str(),
                  paper::shared_property(p, 2, reg)->automaton().to_dot(&reg)
                      .c_str());
    }
  }
  return 0;
}

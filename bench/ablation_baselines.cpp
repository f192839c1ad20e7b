// Ablations and baselines beyond the paper's figures:
//   1. Decentralized vs centralized monitoring (Table 6.1's trade-offs made
//      quantitative): network messages and memory for the same workloads.
//   2. The algorithm's own optimizations (4.3.2 probe dedup, 4.3.3
//      same-destination pruning) switched off one at a time.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace decmon;

struct Numbers {
  double messages = 0;
  double memory = 0;  // global views (dec) / explored cuts (cen)
  double tokens = 0;
};

Numbers run_once(paper::Property prop, int n, bool centralized,
                 MonitorOptions options = {}) {
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));
  Numbers out;
  const int reps = 3;
  for (int r = 0; r < reps; ++r) {
    TraceParams params = paper::experiment_params(
        prop, n, 77 + static_cast<std::uint64_t>(r), 3.0, true, 25);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    RunResult run = centralized ? session.run_centralized(trace)
                                : session.run(trace, SimConfig{}, options);
    out.messages += static_cast<double>(run.monitor_messages);
    out.memory += static_cast<double>(run.total_global_views);
    out.tokens +=
        static_cast<double>(run.verdict.aggregate.tokens_created);
  }
  out.messages /= reps;
  out.memory /= reps;
  out.tokens /= reps;
  return out;
}

}  // namespace

int main() {
  using namespace decmon;

  std::printf("Decentralized vs centralized (CommMu=3s, 25 internal events "
              "per process, avg of 3 runs)\n");
  std::printf("%-9s %-4s | %12s %12s | %12s %12s\n", "property", "n",
              "dec msgs", "dec views", "cen msgs", "cen cuts");
  for (paper::Property p :
       {paper::Property::kB, paper::Property::kC, paper::Property::kD}) {
    for (int n = 2; n <= 5; ++n) {
      Numbers dec = run_once(p, n, /*centralized=*/false);
      Numbers cen = run_once(p, n, /*centralized=*/true);
      std::printf("%-9s %-4d | %12.1f %12.1f | %12.1f %12.1f\n",
                  paper::name(p).c_str(), n, dec.messages, dec.memory,
                  cen.messages, cen.memory);
    }
  }

  std::printf("\nOptimization ablation (property D, 4 processes)\n");
  std::printf("%-34s %12s %12s %12s\n", "configuration", "messages",
              "views", "tokens");
  MonitorOptions all_on;
  MonitorOptions no_dedupe;
  no_dedupe.dedupe_probes = false;
  MonitorOptions no_prune;
  no_prune.prune_same_destination = false;
  MonitorOptions none;
  none.dedupe_probes = false;
  none.prune_same_destination = false;
  MonitorOptions jump;
  jump.walk_mode = WalkMode::kJoinJump;
  MonitorOptions no_subsume;
  no_subsume.subsume_views = false;
  no_subsume.merge_by_state = false;
  const struct {
    const char* label;
    MonitorOptions options;
  } configs[] = {
      {"all optimizations (default)", all_on},
      {"without probe dedup (4.3.2)", no_dedupe},
      {"without same-dest pruning (4.3.3)", no_prune},
      {"without view subsumption/merge", no_subsume},
      {"no optimizations", none},
      {"thesis join-jump walk (unsound)", jump},
  };
  for (const auto& cfg : configs) {
    Numbers x = run_once(paper::Property::kD, 4, false, cfg.options);
    std::printf("%-34s %12.1f %12.1f %12.1f\n", cfg.label, x.messages,
                x.memory, x.tokens);
  }
  return 0;
}

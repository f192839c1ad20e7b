// Regenerates the monitor's refactor-equivalence goldens.
//
// Default table (tests/monitor/equivalence_goldens.inc): the recorded
// behaviour of the decentralized monitor on the paper's properties A-F at
// n in {3, 5} over three trace seeds. It pins verdict sets and the
// monitor_messages / global_views_created / token_hops counters so hot-path
// refactors can prove byte-identical behaviour against the seed
// implementation.
//
// Extended table (--extended, tests/monitor/equivalence_goldens_ext.inc):
// the comm-heavy D and F cells at n=5 over sixteen more trace seeds in the
// default posture, plus the streaming posture (history GC every 4 local
// events, floor gossip on) over the default grid and the new seeds, plus
// long traces (D/F n=5 at 50 and 100 internal events per process, both
// postures, the three default seeds): the default length of 25 leaves few
// bulk advances of the token walk more than a handful of events long. For
// a fixed posture every counter is deterministic, so the streaming rows pin
// msgs/views/hops too, not only the verdict sets.
//
// Usage:
//   golden_gen > tests/monitor/equivalence_goldens.inc
//   golden_gen --extended > tests/monitor/equivalence_goldens_ext.inc
//
// The workload must stay in lockstep with run_golden_workload() in
// tests/monitor/equivalence_golden_test.cpp.
#include <cstdio>
#include <cstring>
#include <string>

#include "decmon/decmon.hpp"

using namespace decmon;

namespace {

std::string verdict_set_string(const std::set<Verdict>& vs) {
  std::string s;
  for (Verdict v : vs) {
    switch (v) {
      case Verdict::kUnknown: s += '?'; break;
      case Verdict::kTrue: s += 'T'; break;
      case Verdict::kFalse: s += 'F'; break;
    }
  }
  return s;
}

/// Internal events per process of the paper's experiments (the default of
/// paper::experiment_params).
constexpr int kDefaultInternalEvents = 25;

/// gc_interval 0 = the default posture; otherwise streaming with this GC
/// cadence.
RunResult run_cell(paper::Property prop, int n, std::uint64_t seed,
                   std::uint32_t gc_interval,
                   int internal_events = kDefaultInternalEvents) {
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));
  TraceParams params = paper::experiment_params(
      prop, n, seed, /*comm_mu=*/3.0, /*comm_enabled=*/true, internal_events);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);
  MonitorOptions options;
  if (gc_interval > 0) {
    options.streaming = true;
    options.gc_interval = gc_interval;
  }
  return session.run(trace, SimConfig{}, options);
}

void print_row(paper::Property prop, int n, std::uint64_t seed,
               const std::string& posture, const RunResult& run) {
  std::printf("{\"%s\", %d, %llu, %s\"%s\", %llu, %llu, %llu},\n",
              paper::name(prop).c_str(), n,
              static_cast<unsigned long long>(seed), posture.c_str(),
              verdict_set_string(run.verdict.verdicts).c_str(),
              static_cast<unsigned long long>(run.monitor_messages),
              static_cast<unsigned long long>(
                  run.verdict.aggregate.global_views_created),
              static_cast<unsigned long long>(
                  run.verdict.aggregate.token_hops));
}

constexpr std::uint64_t kDefaultSeeds[] = {2015, 2016, 2017};
constexpr std::uint32_t kStreamingGcInterval = 4;

void print_default_table() {
  std::printf(
      "// Recorded goldens for the monitor hot path. Regenerate with:\n"
      "//   build/tools/golden_gen > tests/monitor/equivalence_goldens.inc\n"
      "// Columns: property, n, seed, verdict set, monitor_messages,\n"
      "// global_views_created, token_hops.\n");
  for (paper::Property prop : paper::kAllProperties) {
    for (int n : {3, 5}) {
      for (std::uint64_t seed : kDefaultSeeds) {
        print_row(prop, n, seed, "", run_cell(prop, n, seed, 0));
      }
    }
  }
}

void print_extended_table() {
  std::printf(
      "// Extended goldens for the monitor hot path. Regenerate with:\n"
      "//   build/tools/golden_gen --extended > "
      "tests/monitor/equivalence_goldens_ext.inc\n"
      "// Columns: property, n, seed, gc_interval (0 = default posture,\n"
      "// else streaming), internal events per process, verdict set,\n"
      "// monitor_messages, global_views_created, token_hops.\n");
  auto posture = [](std::uint32_t gc_interval, int internal_events) {
    return std::to_string(gc_interval) + ", " +
           std::to_string(internal_events) + ", ";
  };
  for (paper::Property prop : {paper::Property::kD, paper::Property::kF}) {
    for (std::uint64_t seed = 3001; seed <= 3016; ++seed) {
      for (std::uint32_t gc : {0u, kStreamingGcInterval}) {
        print_row(prop, 5, seed, posture(gc, kDefaultInternalEvents),
                  run_cell(prop, 5, seed, gc));
      }
    }
  }
  for (paper::Property prop : paper::kAllProperties) {
    for (int n : {3, 5}) {
      for (std::uint64_t seed : kDefaultSeeds) {
        print_row(prop, n, seed,
                  posture(kStreamingGcInterval, kDefaultInternalEvents),
                  run_cell(prop, n, seed, kStreamingGcInterval));
      }
    }
  }
  for (paper::Property prop : {paper::Property::kD, paper::Property::kF}) {
    for (int internal_events : {50, 100}) {
      for (std::uint64_t seed : kDefaultSeeds) {
        for (std::uint32_t gc : {0u, kStreamingGcInterval}) {
          print_row(prop, 5, seed, posture(gc, internal_events),
                    run_cell(prop, 5, seed, gc, internal_events));
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--extended") == 0) {
    print_extended_table();
  } else if (argc > 1) {
    std::fprintf(stderr, "usage: golden_gen [--extended]\n");
    return 2;
  } else {
    print_default_table();
  }
  return 0;
}

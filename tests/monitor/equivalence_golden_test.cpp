// Refactor-equivalence goldens: the decentralized monitor's observable
// behaviour on the paper's properties A-F (n in {3, 5}, three trace seeds)
// is pinned against the numbers recorded from the pre-dispatch-table seed
// implementation. Any hot-path change that alters a verdict set or one of
// the monitor_messages / global_views_created / token_hops counters fails
// here byte-by-byte instead of silently shifting the Chapter 5 figures.
//
// Regenerate (only when behaviour is *supposed* to change):
//   build/tools/golden_gen > tests/monitor/equivalence_goldens.inc
//   build/tools/golden_gen --extended >
//       tests/monitor/equivalence_goldens_ext.inc
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decmon/decmon.hpp"

namespace decmon {
namespace {

struct GoldenRow {
  const char* prop;
  int n;
  std::uint64_t seed;
  const char* verdicts;  ///< subset of "?TF" in enum order
  std::uint64_t monitor_messages;
  std::uint64_t global_views_created;
  std::uint64_t token_hops;
};

constexpr GoldenRow kGoldens[] = {
#include "equivalence_goldens.inc"
};

/// A row of the extended table: gc_interval 0 is the default posture, any
/// other value the streaming posture with that GC cadence.
struct ExtendedGoldenRow {
  const char* prop;
  int n;
  std::uint64_t seed;
  std::uint32_t gc_interval;
  const char* verdicts;
  std::uint64_t monitor_messages;
  std::uint64_t global_views_created;
  std::uint64_t token_hops;
};

constexpr ExtendedGoldenRow kExtendedGoldens[] = {
#include "equivalence_goldens_ext.inc"
};

paper::Property property_by_name(const std::string& name) {
  for (paper::Property p : paper::kAllProperties) {
    if (paper::name(p) == name) return p;
  }
  ADD_FAILURE() << "unknown property " << name;
  return paper::Property::kA;
}

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

// Must stay in lockstep with tools/golden_gen.cpp.
RunResult run_golden_workload(paper::Property prop, int n, std::uint64_t seed,
                              const MonitorOptions& options = {}) {
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));
  TraceParams params = paper::experiment_params(prop, n, seed);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);
  return session.run(trace, SimConfig{}, options);
}

TEST(EquivalenceGolden, MatchesSeedImplementation) {
  ASSERT_EQ(std::size(kGoldens), 6u * 2u * 3u);
  for (const GoldenRow& row : kGoldens) {
    SCOPED_TRACE(std::string(row.prop) + " n=" + std::to_string(row.n) +
                 " seed=" + std::to_string(row.seed));
    const RunResult run =
        run_golden_workload(property_by_name(row.prop), row.n, row.seed);
    EXPECT_EQ(verdict_set_string(run.verdict.verdicts), row.verdicts);
    EXPECT_EQ(run.monitor_messages, row.monitor_messages);
    EXPECT_EQ(run.verdict.aggregate.global_views_created,
              row.global_views_created);
    EXPECT_EQ(run.verdict.aggregate.token_hops, row.token_hops);
  }
}

// The streaming posture (history GC + floor gossip) must reach the exact
// same verdict sets on every golden cell. Message and view counts are NOT
// compared: floor gossip adds sends, which shifts the simulator's latency
// draws and hence the schedule -- only the verdicts are schedule-invariant.
TEST(EquivalenceGolden, StreamingPostureKeepsVerdictSets) {
  MonitorOptions streaming;
  streaming.streaming = true;
  streaming.gc_interval = 4;  // aggressive: many sweeps even on short cells
  for (const GoldenRow& row : kGoldens) {
    SCOPED_TRACE(std::string(row.prop) + " n=" + std::to_string(row.n) +
                 " seed=" + std::to_string(row.seed));
    const RunResult run = run_golden_workload(property_by_name(row.prop),
                                              row.n, row.seed, streaming);
    EXPECT_EQ(verdict_set_string(run.verdict.verdicts), row.verdicts);
    EXPECT_TRUE(run.verdict.all_finished);
    // The posture must actually engage, not silently no-op.
    EXPECT_GT(run.verdict.aggregate.gc_sweeps, 0u);
  }
}

// The extended table: sixteen more comm-heavy D/F n=5 seeds in the default
// posture, and the streaming posture (GC every 4 local events) with its
// exact counters on the default grid and the new seeds. Recorded before the
// token walk learned to skip uneventful local events, so it pins that the
// skip changes no message, view or hop anywhere.
TEST(EquivalenceGolden, ExtendedTableMatchesRecordedCounts) {
  ASSERT_EQ(std::size(kExtendedGoldens), 2u * 16u * 2u + 6u * 2u * 3u);
  for (const ExtendedGoldenRow& row : kExtendedGoldens) {
    SCOPED_TRACE(std::string(row.prop) + " n=" + std::to_string(row.n) +
                 " seed=" + std::to_string(row.seed) +
                 " gc_interval=" + std::to_string(row.gc_interval));
    MonitorOptions options;
    if (row.gc_interval > 0) {
      options.streaming = true;
      options.gc_interval = row.gc_interval;
    }
    const RunResult run = run_golden_workload(property_by_name(row.prop),
                                              row.n, row.seed, options);
    EXPECT_EQ(verdict_set_string(run.verdict.verdicts), row.verdicts);
    EXPECT_EQ(run.monitor_messages, row.monitor_messages);
    EXPECT_EQ(run.verdict.aggregate.global_views_created,
              row.global_views_created);
    EXPECT_EQ(run.verdict.aggregate.token_hops, row.token_hops);
  }
}

}  // namespace
}  // namespace decmon

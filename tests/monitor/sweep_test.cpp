// Parameterized end-to-end sweeps over the paper's experimental grid:
// property x process-count x communication frequency. Each cell runs the
// full simulated system and checks the correctness contract against the
// lattice oracle (where tractable) plus structural invariants.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"

namespace decmon {
namespace {

using SweepParam = std::tuple<paper::Property, int /*n*/, double /*commMu*/>;

class ExperimentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweep, ContractAndInvariants) {
  const auto [prop, n, comm_mu] = GetParam();
  MonitorSession session(
      paper::shared_property(prop, n, paper::make_registry(n)));

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    TraceParams params = paper::experiment_params(prop, n, seed, comm_mu,
                                                  comm_mu > 0.0,
                                                  /*internal_events=*/8);
    SystemTrace trace = generate_trace(params);
    force_final_all_true(trace);
    RunResult r = session.run(trace);

    // Liveness of the monitoring layer itself (Theorem 1).
    EXPECT_TRUE(r.verdict.all_finished);
    // Basic accounting.
    EXPECT_EQ(r.program_events,
              static_cast<std::uint64_t>(trace.total_events()));
    EXPECT_GT(r.total_global_views, 0u);

    // Oracle contract, when the lattice fits.
    try {
      OracleResult oracle = session.oracle(trace, SimConfig{},
                                           std::size_t{1} << 18);
      for (Verdict v : oracle.verdicts) {
        EXPECT_TRUE(r.verdict.verdicts.count(v))
            << paper::name(prop) << "(" << n << ") commMu=" << comm_mu
            << " seed=" << seed << ": oracle verdict " << to_string(v)
            << " missed";
      }
      for (Verdict v : r.verdict.verdicts) {
        if (v != Verdict::kUnknown) {
          EXPECT_TRUE(oracle.verdicts.count(v))
              << paper::name(prop) << "(" << n << ") commMu=" << comm_mu
              << " seed=" << seed << ": unsound " << to_string(v);
        }
      }
    } catch (const std::length_error&) {
      // Lattice too wide for ground truth; the structural checks above
      // still ran.
    }
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [prop, n, comm_mu] = info.param;
  std::string comm = comm_mu > 0.0
                         ? "comm" + std::to_string(static_cast<int>(comm_mu))
                         : "nocomm";
  return paper::name(prop) + std::to_string(n) + "_" + comm;
}

INSTANTIATE_TEST_SUITE_P(
    PropertyGrid, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kA,
                                         paper::Property::kB,
                                         paper::Property::kC,
                                         paper::Property::kD,
                                         paper::Property::kE,
                                         paper::Property::kF),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(3.0)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    CommFrequencyGrid, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kC),
                       ::testing::Values(4),
                       ::testing::Values(3.0, 6.0, 9.0, 15.0, 0.0)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    FiveProcesses, ExperimentSweep,
    ::testing::Combine(::testing::Values(paper::Property::kB,
                                         paper::Property::kD),
                       ::testing::Values(5),
                       ::testing::Values(3.0)),
    sweep_name);

}  // namespace
}  // namespace decmon

// Stress and robustness: long monitored runs at the paper's largest scale,
// memory boundedness, determinism, trace hook, and liveness under hostile
// communication patterns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decmon/core/properties.hpp"
#include "decmon/core/session.hpp"
#include "decmon/distributed/sim_runtime.hpp"
#include "decmon/monitor/checkpoint.hpp"
#include "decmon/monitor/decentralized_monitor.hpp"

namespace decmon {
namespace {

TEST(Stress, LongRunFiveProcessesDrains) {
  MonitorSession session(
      paper::shared_property(paper::Property::kD, 5, paper::make_registry(5)));
  TraceParams params = paper::experiment_params(paper::Property::kD, 5, 404,
                                                3.0, true,
                                                /*internal_events=*/60);
  SystemTrace trace = generate_trace(params);
  RunResult r = session.run(trace);
  EXPECT_TRUE(r.verdict.all_finished);
  EXPECT_EQ(r.program_events,
            static_cast<std::uint64_t>(trace.total_events()));
}

TEST(Stress, PeakViewsStayBounded) {
  // Memory claim (4.4.2): live views do not grow with the event count.
  MonitorSession session(
      paper::shared_property(paper::Property::kC, 3, paper::make_registry(3)));
  std::uint64_t prev_peak = 0;
  for (int events : {20, 40, 80}) {
    TraceParams params =
        paper::experiment_params(paper::Property::kC, 3, 7, 3.0, true, events);
    RunResult r = session.run(generate_trace(params));
    std::uint64_t peak = 0;
    for (const MonitorStats& s : r.verdict.per_monitor) {
      peak = std::max(peak, s.peak_global_views);
    }
    // Allow some growth but nothing near linear in the events.
    if (prev_peak > 0) {
      EXPECT_LE(peak, prev_peak * 3 + 20) << events;
    }
    prev_peak = peak;
  }
}

TEST(Stress, ViewCapGuardsRunaway) {
  MonitorSession session(
      paper::shared_property(paper::Property::kF, 3, paper::make_registry(3)));
  TraceParams params =
      paper::experiment_params(paper::Property::kF, 3, 9, 3.0, true, 20);
  MonitorOptions tight;
  tight.max_views = 2;  // absurdly small: must trip
  EXPECT_THROW(session.run(generate_trace(params), SimConfig{}, tight),
               std::length_error);
}

/// One paper cell under a tight cap, with the monitors kept accessible
/// after the throw (MonitorSession::run would discard them).
struct CapBreach {
  bool hit = false;
  std::string what;            ///< exception text: names the breach site
  std::uint64_t overflowed = 0;  ///< views_overflowed summed over monitors
};

CapBreach run_with_cap(paper::Property prop, int n, std::uint64_t seed,
                       std::size_t max_views) {
  AtomRegistry reg = paper::make_registry(n);
  const SharedProperty art = paper::shared_property(prop, n, reg);
  const CompiledProperty& property = art->property();
  TraceParams params =
      paper::experiment_params(prop, n, seed, 3.0, true, 20);
  SimRuntime runtime(generate_trace(params), &reg, SimConfig{});
  MonitorOptions tight;
  tight.max_views = max_views;
  DecentralizedMonitor monitors(
      &property, &runtime,
      initial_letters_of(reg, runtime.initial_states()), tight);
  runtime.set_hooks(&monitors);

  CapBreach breach;
  try {
    runtime.run();
  } catch (const MonitorOverflow& e) {
    breach.hit = true;
    breach.what = e.what();
  }
  for (int i = 0; i < n; ++i) {
    MonitorProcess& m = monitors.monitor(i);
    breach.overflowed += m.stats().views_overflowed;
    // The breach is surfaced *before* any view is pushed, so the cap is a
    // true invariant and the abandoned creation is never counted.
    EXPECT_LE(m.num_views(), max_views);
    EXPECT_LE(m.stats().peak_global_views, max_views);
    // The thrower unwound cleanly: every monitor still checkpoint
    // round-trips byte-identically.
    const std::vector<std::uint8_t> blob = checkpoint_monitor(m);
    restore_monitor(m, blob);
    EXPECT_EQ(checkpoint_monitor(m), blob) << "monitor " << i;
  }
  return breach;
}

TEST(Stress, ViewCapBreachIsCleanAtBothSites) {
  // Sweep small cells until both creation sites have tripped: the fork of a
  // consistent probe (pool token must be recycled, view must not be left
  // waiting) and the spawn of a pivot view mid-token-dispatch (memo must not
  // record a view that was never pushed). Every breach must leave the
  // monitors valid and the stat accounting honest.
  bool saw_fork = false;
  bool saw_spawn = false;
  for (paper::Property prop : paper::kAllProperties) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(paper::name(prop) + " seed=" + std::to_string(seed));
      const CapBreach breach = run_with_cap(prop, 3, seed, 2);
      if (!breach.hit) continue;
      EXPECT_GE(breach.overflowed, 1u);
      if (breach.what.find("(fork)") != std::string::npos) saw_fork = true;
      if (breach.what.find("(spawn)") != std::string::npos) saw_spawn = true;
    }
  }
  EXPECT_TRUE(saw_fork) << "no cell tripped the probe-fork cap site";
  EXPECT_TRUE(saw_spawn) << "no cell tripped the spawn cap site";
}

TEST(Stress, HeavyCommunicationStillDrains) {
  // Communication every ~0.5s: receives dominate, views churn through
  // inconsistency repair constantly.
  MonitorSession session(
      paper::shared_property(paper::Property::kA, 4, paper::make_registry(4)));
  TraceParams params =
      paper::experiment_params(paper::Property::kA, 4, 5, 0.5, true, 15);
  RunResult r = session.run(generate_trace(params));
  EXPECT_TRUE(r.verdict.all_finished);
}

TEST(Stress, HighLatencyNetworkStillDrains) {
  // Token replies arrive long after the program finished.
  MonitorSession session(
      paper::shared_property(paper::Property::kD, 3, paper::make_registry(3)));
  SimConfig slow;
  slow.mon_latency_mu = 30.0;  // monitor messages are 10x slower than events
  slow.mon_latency_sigma = 10.0;
  TraceParams params =
      paper::experiment_params(paper::Property::kD, 3, 6, 3.0, true, 12);
  RunResult r = session.run(generate_trace(params), slow);
  EXPECT_TRUE(r.verdict.all_finished);
  EXPECT_GT(r.monitor_end, r.program_end);  // drain continues after program
}

TEST(Stress, TraceHookReceivesLines) {
  MonitorSession session(
      paper::shared_property(paper::Property::kB, 2, paper::make_registry(2)));
  TraceParams params =
      paper::experiment_params(paper::Property::kB, 2, 3, 3.0, true, 10);
  MonitorOptions options;
  std::vector<std::string> lines;
  options.trace = [&lines](const std::string& s) { lines.push_back(s); };
  session.run(generate_trace(params), SimConfig{}, options);
  ASSERT_FALSE(lines.empty());
  bool saw_probe = false;
  for (const std::string& l : lines) {
    if (l.find("probe") != std::string::npos) saw_probe = true;
  }
  EXPECT_TRUE(saw_probe);
}

TEST(Stress, RepeatedRunsShareNoState) {
  // Back-to-back runs through one session are independent and identical.
  MonitorSession session(
      paper::shared_property(paper::Property::kE, 3, paper::make_registry(3)));
  TraceParams params =
      paper::experiment_params(paper::Property::kE, 3, 12, 3.0, true, 20);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);
  RunResult first = session.run(trace);
  for (int i = 0; i < 3; ++i) {
    RunResult again = session.run(trace);
    EXPECT_EQ(again.verdict.verdicts, first.verdict.verdicts);
    EXPECT_EQ(again.monitor_messages, first.monitor_messages);
    EXPECT_EQ(again.total_global_views, first.total_global_views);
  }
}

}  // namespace
}  // namespace decmon

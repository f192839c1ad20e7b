// Google-benchmark micro benchmarks of the core components: monitor
// synthesis, automaton stepping, vector-clock operations, predicate
// detection (slicing), the oracle's lattice DP and whole monitored runs.
#include <benchmark/benchmark.h>

#include <random>

#include "decmon/decmon.hpp"

namespace {

using namespace decmon;

void BM_VectorClockCompare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  VectorClock a(n);
  VectorClock b(n);
  std::mt19937_64 rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint32_t>(rng() % 100);
    b[i] = static_cast<std::uint32_t>(rng() % 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VectorClockCompare)->Arg(4)->Arg(16)->Arg(64);

void BM_MonitorSynthesis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AtomRegistry reg = paper::make_registry(n);
    FormulaPtr f = paper::formula(paper::Property::kD, n, reg);
    benchmark::DoNotOptimize(synthesize_monitor(f));
  }
}
BENCHMARK(BM_MonitorSynthesis)->Arg(2)->Arg(3)->Arg(4);

void BM_AutomatonStep(benchmark::State& state) {
  const SharedProperty art =
      paper::shared_property(paper::Property::kF, 4, paper::make_registry(4));
  const MonitorAutomaton& m = art->automaton();
  std::mt19937_64 rng(7);
  std::vector<AtomSet> letters;
  for (int i = 0; i < 256; ++i) letters.push_back(rng() & 0xFF);
  int q = m.initial_state();
  std::size_t i = 0;
  for (auto _ : state) {
    q = *m.step(q, letters[i++ & 255]);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_AutomatonStep);

void BM_SlicerLeastCut(benchmark::State& state) {
  const int n = 3;
  AtomRegistry reg = paper::make_registry(n);
  ComputationBuilder b(n, &reg);
  std::mt19937_64 rng(5);
  for (int e = 0; e < 120; ++e) {
    const int p = static_cast<int>(rng() % n);
    b.internal(p, {static_cast<std::int64_t>(rng() % 2),
                   static_cast<std::int64_t>(rng() % 2)});
  }
  Computation comp = b.build();
  Cube pred{0b010101, 0};  // all three p's true
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        least_satisfying_cut(comp, pred, reg, comp.bottom()));
  }
}
BENCHMARK(BM_SlicerLeastCut);

void BM_OracleLatticeDP(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  AtomRegistry reg = paper::make_registry(2);
  const SharedProperty art =
      paper::shared_property(paper::Property::kC, 2, reg);
  const MonitorAutomaton& m = art->automaton();
  ComputationBuilder b(2, &reg);
  std::mt19937_64 rng(3);
  for (int e = 0; e < events; ++e) {
    b.internal(static_cast<int>(rng() % 2),
               {static_cast<std::int64_t>(rng() % 2),
                static_cast<std::int64_t>(rng() % 2)});
  }
  Computation comp = b.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle_evaluate(comp, m, std::size_t{1} << 22));
  }
}
BENCHMARK(BM_OracleLatticeDP)->Arg(16)->Arg(32)->Arg(64);

void BM_MonitoredRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MonitorSession session(
      paper::shared_property(paper::Property::kC, n, paper::make_registry(n)));
  TraceParams params = paper::experiment_params(paper::Property::kC, n, 9);
  SystemTrace trace = generate_trace(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.total_events()));
}
BENCHMARK(BM_MonitoredRun)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_CentralizedRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MonitorSession session(
      paper::shared_property(paper::Property::kC, n, paper::make_registry(n)));
  TraceParams params = paper::experiment_params(paper::Property::kC, n, 9);
  SystemTrace trace = generate_trace(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_centralized(trace));
  }
}
BENCHMARK(BM_CentralizedRun)->Arg(2)->Arg(3);

void BM_LtlParse(benchmark::State& state) {
  for (auto _ : state) {
    AtomRegistry reg = paper::make_registry(5);
    benchmark::DoNotOptimize(
        parse_ltl(paper::formula_text(paper::Property::kF, 5), reg));
  }
}
BENCHMARK(BM_LtlParse);

}  // namespace

BENCHMARK_MAIN();

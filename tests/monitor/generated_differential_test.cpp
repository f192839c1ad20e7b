// Generated-code equivalence, layer 2: sessions admitted through the
// ahead-of-time CompiledPropertyRegistry produce BIT-IDENTICAL verdict sets
// and counters to sessions built by runtime synthesis, over the full
// equivalence-golden grid (A-F x n in {3,5} x three seeds) on the
// deterministic simulator. The structural tests (automata/) prove the
// automata identical; this proves the whole admission path -- registry
// lookup, shared artifact, aliasing property handles in every monitor
// replica -- changes nothing observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decmon/decmon.hpp"
#include "decmon/generated/gen_tables.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon {
namespace {

constexpr std::uint64_t kGoldenSeeds[] = {2015, 2016, 2017};

RunResult run_workload(const MonitorSession& session, paper::Property p,
                       int n, std::uint64_t seed) {
  TraceParams params = paper::experiment_params(p, n, seed);
  SystemTrace trace = generate_trace(params);
  force_final_all_true(trace);
  return session.run(trace);
}

std::string fingerprint(const RunResult& r) {
  std::string fp;
  for (Verdict v : r.verdict.verdicts) fp += to_string(v) + ";";
  fp += "m=" + std::to_string(r.monitor_messages);
  fp += ",v=" + std::to_string(r.verdict.aggregate.global_views_created);
  fp += ",h=" + std::to_string(r.verdict.aggregate.token_hops);
  fp += ",fin=" + std::to_string(r.verdict.all_finished);
  return fp;
}

TEST(GeneratedDifferential, AotAdmissionMatchesRuntimeSynthesisBitExact) {
  for (paper::Property p : paper::kAllProperties) {
    for (int n : {3, 5}) {
      // Admit through the store: with the synthesized rows dropped, every
      // golden (property, n) must be served by the generated set, not
      // synthesized.
      paper::synthesis_cache_clear();
      const auto before = CompiledPropertyRegistry::instance().stats();
      SharedProperty artifact =
          paper::shared_property(p, n, paper::make_registry(n));
      const auto after = CompiledPropertyRegistry::instance().stats();
      ASSERT_EQ(after.hits, before.hits + 1)
          << paper::name(p) << " n=" << n
          << ": golden property not served by the AOT registry";
      MonitorSession aot(artifact);

      // Reference: runtime synthesis with the store bypassed.
      AtomRegistry reg = paper::make_registry(n);
      MonitorSession synthesized(paper::make_registry(n),
                                 paper::build_automaton_uncached(p, n, reg));

      for (std::uint64_t seed : kGoldenSeeds) {
        SCOPED_TRACE(paper::name(p) + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        EXPECT_EQ(fingerprint(run_workload(aot, p, n, seed)),
                  fingerprint(run_workload(synthesized, p, n, seed)));
      }
    }
  }
}

TEST(GeneratedDifferential, SharedAdmissionIsZeroCopy) {
  paper::synthesis_cache_clear();
  AtomRegistry reg = paper::make_registry(3);
  SharedProperty first = paper::shared_property(paper::Property::kD, 3, reg);
  SharedProperty second = paper::shared_property(paper::Property::kD, 3, reg);
  // Same artifact object, not a copy -- admission is a refcount bump.
  EXPECT_EQ(first.get(), second.get());

  MonitorSession a(first);
  MonitorSession b(second);
  EXPECT_EQ(&a.property(), &b.property());
  EXPECT_GE(CompiledPropertyRegistry::instance().stats().hits, 2u);
}

TEST(GeneratedDifferential, ClearedCachesNeverInvalidateLiveSessions) {
  // The clear() race the shared posture closes: admit, clear the store both
  // ways, then run -- the session's artifact outlives its row through its
  // shared_ptr, so the run still completes and agrees with a fresh session.
  paper::synthesis_cache_clear();
  MonitorSession session(
      paper::shared_property(paper::Property::kF, 3, paper::make_registry(3)));
  paper::synthesis_cache_clear();
  CompiledPropertyRegistry::instance().clear();

  const RunResult survivor =
      run_workload(session, paper::Property::kF, 3, kGoldenSeeds[0]);
  MonitorSession fresh(
      paper::shared_property(paper::Property::kF, 3, paper::make_registry(3)));
  const RunResult reference =
      run_workload(fresh, paper::Property::kF, 3, kGoldenSeeds[0]);
  EXPECT_EQ(fingerprint(survivor), fingerprint(reference));
}

TEST(GeneratedDifferential, StaleGeneratedArtifactFallsBackToSynthesis) {
  // Hostile posture: a generated table whose atom signature no longer
  // matches the live registry (stale src/generated/ after a registry
  // change) must be refused -- counted once as a mismatch, never stored --
  // and admission must fall back to runtime synthesis, not serve stale
  // tables. D at n=4 is outside the golden set, so the formula is otherwise
  // unknown to the store.
  CompiledPropertyRegistry& store = CompiledPropertyRegistry::instance();
  store.clear();
  const int n = 4;
  AtomRegistry reg = paper::make_registry(n);
  const std::string formula = paper::formula_text(paper::Property::kD, n);

  // Plant the stale table. The signature check refuses it before any of
  // its arrays are read, so only its identity needs filling in.
  gen::GenAutomaton stale{};
  stale.name = "D_n4";
  stale.formula = formula.c_str();
  stale.atom_signature = "stale-signature";
  stale.num_processes = n;
  gen::register_generated(store, stale);
  EXPECT_EQ(store.stats().mismatches, 1u);

  const auto before = store.stats();
  SharedProperty artifact =
      paper::shared_property(paper::Property::kD, n, reg);
  const auto after = store.stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.mismatches, 1u);  // counted at registration, not lookup

  // The fallback is a real synthesized artifact, equivalent to uncached.
  ASSERT_TRUE(artifact);
  EXPECT_TRUE(artifact->automaton().same_structure(
      paper::build_automaton_uncached(paper::Property::kD, n, reg)));

  store.clear();  // leave a pristine store behind
}

}  // namespace
}  // namespace decmon

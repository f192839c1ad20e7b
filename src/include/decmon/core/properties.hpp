// The paper's benchmark properties A-F (§5.1), scaled over n processes, and
// their monitor automata built exactly in the shape of the thesis figures
// (Fig. 5.2/5.3): unreduced Moore machines with one conjunctive-predicate
// transition per disjunct. The thesis deliberately uses these "complicated"
// versions rather than the fully minimized automata ("it provides more
// information as q1 is a ? state"), so Table 5.1's transition counts are a
// property of this construction; our synthesized-and-minimized automata are
// available for comparison through decmon::synthesize_monitor.
#pragma once

#include <string>
#include <vector>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/distributed/trace.hpp"
#include "decmon/ltl/atoms.hpp"
#include "decmon/ltl/formula.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon::paper {

enum class Property { kA, kB, kC, kD, kE, kF };

constexpr Property kAllProperties[] = {Property::kA, Property::kB,
                                       Property::kC, Property::kD,
                                       Property::kE, Property::kF};

std::string name(Property p);

/// Registry for the case study: every process has boolean variables p and q,
/// with atoms registered in the fixed order P0.p, P0.q, P1.p, P1.q, ...
AtomRegistry make_registry(int num_processes);

/// The scaled LTL text of a property, e.g. A(4) =
/// "G((P0.p && P1.p) U (P2.p && P3.p))".
std::string formula_text(Property p, int num_processes);

/// Parse the scaled formula against `registry` (made by make_registry).
FormulaPtr formula(Property p, int num_processes, AtomRegistry& registry);

/// Build the thesis-shaped monitor automaton for the property, with no
/// store lookup: always constructs, validates (deterministic + complete)
/// and builds the dispatch table. `registry` must come from
/// make_registry(num_processes). The reference path for decmon_gen and the
/// generated-vs-synthesized equivalence tests; admission goes through
/// shared_property.
MonitorAutomaton build_automaton_uncached(Property p, int num_processes,
                                          const AtomRegistry& registry);

/// Zero-copy admission: the shared immutable artifact (registry + automaton
/// + compiled property) for the scaled paper property, from the one
/// property store (CompiledPropertyRegistry). A hit -- a generated monitor
/// from src/generated/ or an earlier synthesis -- is a refcount bump; a
/// miss synthesizes with build_automaton_uncached and inserts the result
/// (the first insert wins, so racing admissions share one artifact).
/// `registry` must have num_processes processes; its atom signature is part
/// of the key, so only make_registry(num_processes) hits the generated set
/// (any other registry is synthesized and the artifact owns a copy of it).
/// Callers that need a mutable automaton copy `->automaton()` themselves.
/// Thread-safe; clearing the store never invalidates artifacts already
/// handed out (shared_ptr keeps them alive).
SharedProperty shared_property(Property p, int num_processes,
                               const AtomRegistry& registry);

/// Registry fingerprint pinning every input automaton construction reads:
/// process count plus each atom's (name, process, var, op, rhs). Two
/// registries with the same signature yield byte-identical automata; the
/// property store keys on it.
std::string atom_signature(const AtomRegistry& registry);

/// Drop the artifacts shared_property synthesized from the property store;
/// the generated rows and the store's counters stay (tests, benchmarks).
void synthesis_cache_clear();

/// Workload parameters for the experiments of Chapter 5: Evt ~ N(3, 1),
/// Comm ~ N(comm_mu, 1), with the proposition distribution tuned per
/// property so monitoring stays live for most of the run ("the variable
/// valuation change events were designed such that there would be a path in
/// the execution lattice that would lead to a final state", §5.1): the
/// G-shaped properties A/C/D/F start true with a high truth bias; the
/// F-shaped properties B/E start false with an even bias.
TraceParams experiment_params(Property p, int num_processes,
                              std::uint64_t seed, double comm_mu = 3.0,
                              bool comm_enabled = true,
                              int internal_events = 25);

}  // namespace decmon::paper

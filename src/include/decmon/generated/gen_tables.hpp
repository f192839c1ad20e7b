// Table format for ahead-of-time generated monitors (tools/decmon_gen).
//
// A generated translation unit under src/generated/ holds one monitor
// automaton flattened into static arrays -- states, transitions in dense-id
// order, and the dense (state, compressed-letter) dispatch tables exactly
// as monitor_automaton.hpp builds them -- plus the formula text and the
// atom signature of the registry the tables were generated against.
// materialize() replays the arrays into a MonitorAutomaton (installing the
// prebuilt dispatch tables instead of rebuilding them); register_generated()
// wraps the result in a PropertyArtifact and registers it in the
// CompiledPropertyRegistry, refusing tables whose recorded atom signature
// no longer matches the live paper registry (a stale table counts one
// mismatch and is not registered, so its formula is synthesized instead).
//
// Regeneration workflow (see DESIGN.md §14):
//   build/tools/decmon_gen --golden-set --out-dir src/generated
// The CI codegen-drift job reruns this and fails on any byte difference.
#pragma once

#include <cstdint>

namespace decmon {
class CompiledPropertyRegistry;
class MonitorAutomaton;
}  // namespace decmon

namespace decmon::gen {

/// One transition, insertion order == dense id. Guards are the raw
/// conjunctive-cube bitmasks (Cube::pos / Cube::neg).
struct GenTransition {
  std::int32_t from;
  std::int32_t to;
  std::uint64_t pos;
  std::uint64_t neg;
};

/// One flattened monitor automaton plus its identity in the registry.
struct GenAutomaton {
  const char* name;            ///< e.g. "A_n3"
  const char* formula;         ///< paper::formula_text at generation time
  const char* atom_signature;  ///< paper::atom_signature at generation time
  std::int32_t num_processes;
  std::int32_t num_states;
  std::int32_t initial;
  const std::uint8_t* verdicts;  ///< [num_states], decmon::Verdict values
  std::int32_t num_transitions;
  const GenTransition* transitions;  ///< [num_transitions]
  std::int32_t dispatch_bits;
  const std::uint8_t* atom_pos;     ///< [dispatch_bits], ascending
  const std::int32_t* dispatch;     ///< [num_states << dispatch_bits]
  const std::int32_t* dispatch_to;  ///< [num_states << dispatch_bits]
};

/// Replay the arrays into a live automaton with the prebuilt dispatch
/// tables installed. Structurally identical to the runtime-synthesized
/// automaton the tables were generated from (the equivalence tests hold
/// this for every checked-in table).
MonitorAutomaton materialize(const GenAutomaton& g);

/// Register `g` in `registry`. When g.atom_signature still matches the live
/// paper::make_registry(g.num_processes), the materialized artifact is
/// registered for zero-synthesis admission; otherwise the table is refused
/// and counted once in the registry's mismatches.
void register_generated(CompiledPropertyRegistry& registry,
                        const GenAutomaton& g);

/// Register every checked-in generated monitor (defined in
/// src/generated/builtin.cpp, regenerated by decmon_gen --golden-set).
/// Called once by CompiledPropertyRegistry::instance(); takes the registry
/// by reference so registration never re-enters instance().
void register_builtin(CompiledPropertyRegistry& registry);

}  // namespace decmon::gen

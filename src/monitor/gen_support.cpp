#include "decmon/generated/gen_tables.hpp"

#include <memory>
#include <string>
#include <utility>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/core/properties.hpp"
#include "decmon/monitor/property_registry.hpp"

namespace decmon::gen {

MonitorAutomaton materialize(const GenAutomaton& g) {
  MonitorAutomaton m;
  for (std::int32_t q = 0; q < g.num_states; ++q) {
    m.add_state(static_cast<Verdict>(g.verdicts[q]));
  }
  m.set_initial(g.initial);
  for (std::int32_t i = 0; i < g.num_transitions; ++i) {
    const GenTransition& t = g.transitions[i];
    m.add_transition(t.from, t.to, Cube{t.pos, t.neg});
  }
  MonitorAutomaton::PrebuiltDispatch pre;
  pre.bits = g.dispatch_bits;
  pre.atom_pos = g.atom_pos;
  pre.dispatch = g.dispatch;
  pre.dispatch_to = g.dispatch_to;
  m.install_dispatch(pre);
  return m;
}

void register_generated(CompiledPropertyRegistry& registry,
                        const GenAutomaton& g) {
  AtomRegistry atoms = paper::make_registry(g.num_processes);
  if (paper::atom_signature(atoms) != g.atom_signature) {
    // The generated tables predate a registry change: compiling them
    // against today's atoms could index out of today's universe, so the
    // table is refused -- counted once, and its formula is synthesized on
    // first admission.
    registry.count_mismatch();
    return;
  }
  registry.insert(CompiledPropertyRegistry::key(g.formula, g.atom_signature),
                  std::make_shared<PropertyArtifact>(std::move(atoms),
                                                     materialize(g)),
                  CompiledPropertyRegistry::Origin::kGenerated);
}

}  // namespace decmon::gen

#include "decmon/core/properties.hpp"

#include <sstream>
#include <stdexcept>

#include "decmon/ltl/parser.hpp"

namespace decmon::paper {
namespace {

/// Atom id of Pi.p / Pi.q under make_registry's fixed ordering.
int p_atom(int i) { return 2 * i; }
int q_atom(int i) { return 2 * i + 1; }

AtomSet bit(int atom) { return AtomSet{1} << atom; }

AtomSet mask_of(const std::vector<int>& atoms) {
  AtomSet m = 0;
  for (int a : atoms) m |= bit(a);
  return m;
}

std::string conj_text(const std::vector<int>& procs, const char* var) {
  std::ostringstream os;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (i) os << " && ";
    os << 'P' << procs[i] << '.' << var;
  }
  return os.str();
}

std::vector<int> range(int from, int to) {
  std::vector<int> out;
  for (int i = from; i < to; ++i) out.push_back(i);
  return out;
}

/// Monitor automaton for G(P U Q), P and Q conjunctions over disjoint atom
/// sets, in the thesis's 3-state shape (Fig. 5.2a/c): q0 = obligation met,
/// q1 = pending, qF = violated.
MonitorAutomaton build_g_until(const std::vector<int>& pa,
                               const std::vector<int>& qa) {
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int q1 = m.add_state(Verdict::kUnknown);
  const int qf = m.add_state(Verdict::kFalse);
  m.set_initial(q0);
  const Cube q_cube{mask_of(qa), 0};
  // Self-loops and the q1 <-> q0 swing on Q.
  m.add_transition(q0, q0, q_cube);
  m.add_transition(q1, q0, q_cube);
  // P && !Q, split per negated Q-conjunct.
  for (int j : qa) {
    m.add_transition(q0, q1, Cube{mask_of(pa), bit(j)});
    m.add_transition(q1, q1, Cube{mask_of(pa), bit(j)});
  }
  // !P && !Q, split per (negated P-conjunct, negated Q-conjunct) pair.
  for (int i : pa) {
    for (int j : qa) {
      m.add_transition(q0, qf, Cube{0, bit(i) | bit(j)});
      m.add_transition(q1, qf, Cube{0, bit(i) | bit(j)});
    }
  }
  m.add_transition(qf, qf, Cube{});
  return m;
}

/// Monitor automaton for F(conj): q0 = waiting, qT = satisfied (Fig. 5.2b).
MonitorAutomaton build_eventually(const std::vector<int>& atoms) {
  MonitorAutomaton m;
  const int q0 = m.add_state(Verdict::kUnknown);
  const int qt = m.add_state(Verdict::kTrue);
  m.set_initial(q0);
  for (int a : atoms) {
    m.add_transition(q0, q0, Cube{0, bit(a)});
  }
  m.add_transition(q0, qt, Cube{mask_of(atoms), 0});
  m.add_transition(qt, qt, Cube{});
  return m;
}

/// Monitor automaton for G((P0.p U /\ Pi.p) && (P0.q U /\ Pi.q)): the
/// product of two pending trackers, 4 live states + violation (Fig. 5.3b).
MonitorAutomaton build_f_product(int n) {
  MonitorAutomaton m;
  // State (u, v): u = p-part pending, v = q-part pending.
  int idx[2][2];
  for (int u = 0; u < 2; ++u) {
    for (int v = 0; v < 2; ++v) {
      idx[u][v] = m.add_state(Verdict::kUnknown);
    }
  }
  const int qf = m.add_state(Verdict::kFalse);
  m.set_initial(idx[0][0]);

  struct Part {
    int head;               ///< P0.x atom
    std::vector<int> tail;  ///< P1.x .. Pn-1.x atoms
  };
  auto make_part = [&](bool q_part) {
    Part part;
    part.head = q_part ? q_atom(0) : p_atom(0);
    for (int i = 1; i < n; ++i) {
      part.tail.push_back(q_part ? q_atom(i) : p_atom(i));
    }
    return part;
  };
  const Part parts[2] = {make_part(false), make_part(true)};

  // Letter classes of one part: goal (tail conjunction holds), pending
  // (head holds, some tail atom fails), dead (head and some tail fail).
  auto goal_cubes = [&](const Part& part) {
    return std::vector<Cube>{Cube{mask_of(part.tail), 0}};
  };
  auto pending_cubes = [&](const Part& part) {
    std::vector<Cube> out;
    for (int j : part.tail) out.push_back(Cube{bit(part.head), bit(j)});
    return out;
  };
  auto dead_cubes = [&](const Part& part) {
    std::vector<Cube> out;
    for (int j : part.tail) out.push_back(Cube{0, bit(part.head) | bit(j)});
    return out;
  };

  for (int u = 0; u < 2; ++u) {
    for (int v = 0; v < 2; ++v) {
      const int from = idx[u][v];
      // Alive transitions: product of the two parts' live classes.
      for (int u2 = 0; u2 < 2; ++u2) {
        for (int v2 = 0; v2 < 2; ++v2) {
          const auto c1 = u2 ? pending_cubes(parts[0]) : goal_cubes(parts[0]);
          const auto c2 = v2 ? pending_cubes(parts[1]) : goal_cubes(parts[1]);
          for (const Cube& x : c1) {
            for (const Cube& y : c2) {
              m.add_transition(from, idx[u2][v2], Cube::conjoin(x, y));
            }
          }
        }
      }
      // Either part dead: violation.
      for (const Part& part : parts) {
        for (const Cube& c : dead_cubes(part)) {
          m.add_transition(from, qf, c);
        }
      }
    }
  }
  m.add_transition(qf, qf, Cube{});
  return m;
}

}  // namespace

std::string name(Property p) {
  switch (p) {
    case Property::kA: return "A";
    case Property::kB: return "B";
    case Property::kC: return "C";
    case Property::kD: return "D";
    case Property::kE: return "E";
    case Property::kF: return "F";
  }
  return "?";
}

AtomRegistry make_registry(int num_processes) {
  AtomRegistry reg(num_processes);
  for (int i = 0; i < num_processes; ++i) {
    const int vp = reg.declare_variable(i, "p");
    const int vq = reg.declare_variable(i, "q");
    reg.boolean_atom(i, vp);
    reg.boolean_atom(i, vq);
  }
  return reg;
}

std::string formula_text(Property p, int n) {
  if (n < 2) throw std::invalid_argument("paper properties need n >= 2");
  std::ostringstream os;
  switch (p) {
    case Property::kA:
      os << "G((" << conj_text(range(0, n / 2), "p") << ") U ("
         << conj_text(range(n / 2, n), "p") << "))";
      break;
    case Property::kB:
      os << "F(" << conj_text(range(0, n), "p") << ")";
      break;
    case Property::kC:
      os << "G((P0.p) U (" << conj_text(range(1, n), "p") << "))";
      break;
    case Property::kD:
      os << "G((" << conj_text(range(0, n), "p") << ") U ("
         << conj_text(range(0, n), "q") << "))";
      break;
    case Property::kE:
      os << "F(" << conj_text(range(0, n), "p") << " && "
         << conj_text(range(0, n), "q") << ")";
      break;
    case Property::kF:
      os << "G((P0.p U (" << conj_text(range(1, n), "p") << ")) && (P0.q U ("
         << conj_text(range(1, n), "q") << ")))";
      break;
  }
  return os.str();
}

FormulaPtr formula(Property p, int n, AtomRegistry& registry) {
  return parse_ltl(formula_text(p, n), registry);
}

std::string atom_signature(const AtomRegistry& registry) {
  // Admission-path hot: built on every store lookup, so plain string
  // appends instead of an ostringstream.
  std::string sig;
  sig.reserve(16 + registry.atoms().size() * 24);
  sig += std::to_string(registry.num_processes());
  for (const Atom& a : registry.atoms()) {
    sig += ';';
    sig += a.name;
    sig += ',';
    sig += std::to_string(a.process);
    sig += ',';
    sig += std::to_string(a.var);
    sig += ',';
    sig += std::to_string(static_cast<int>(a.op));
    sig += ',';
    sig += std::to_string(a.rhs);
  }
  return sig;
}

void synthesis_cache_clear() {
  CompiledPropertyRegistry::instance().clear_synthesized();
}

MonitorAutomaton build_automaton_uncached(Property p, int n,
                                          const AtomRegistry& registry) {
  if (registry.num_processes() != n) {
    throw std::invalid_argument(
        "build_automaton_uncached: registry/process mismatch");
  }
  auto p_atoms = [&](int from, int to) {
    std::vector<int> out;
    for (int i = from; i < to; ++i) out.push_back(p_atom(i));
    return out;
  };
  auto q_atoms = [&](int from, int to) {
    std::vector<int> out;
    for (int i = from; i < to; ++i) out.push_back(q_atom(i));
    return out;
  };
  MonitorAutomaton m;
  switch (p) {
    case Property::kA:
      m = build_g_until(p_atoms(0, n / 2), p_atoms(n / 2, n));
      break;
    case Property::kB:
      m = build_eventually(p_atoms(0, n));
      break;
    case Property::kC:
      m = build_g_until(p_atoms(0, 1), p_atoms(1, n));
      break;
    case Property::kD:
      m = build_g_until(p_atoms(0, n), q_atoms(0, n));
      break;
    case Property::kE: {
      std::vector<int> atoms = p_atoms(0, n);
      for (int a : q_atoms(0, n)) atoms.push_back(a);
      m = build_eventually(atoms);
      break;
    }
    case Property::kF:
      m = build_f_product(n);
      break;
  }
  if (auto err = m.validate()) {
    throw std::logic_error("paper::build_automaton_uncached: " + *err);
  }
  m.build_dispatch();
  return m;
}

SharedProperty shared_property(Property p, int n,
                               const AtomRegistry& registry) {
  if (registry.num_processes() != n) {
    throw std::invalid_argument("shared_property: registry/process mismatch");
  }
  CompiledPropertyRegistry& store = CompiledPropertyRegistry::instance();
  const std::string key = CompiledPropertyRegistry::key(
      formula_text(p, n), atom_signature(registry));
  if (SharedProperty artifact = store.find(key)) return artifact;
  return store.insert(key,
                      std::make_shared<PropertyArtifact>(
                          AtomRegistry(registry),
                          build_automaton_uncached(p, n, registry)),
                      CompiledPropertyRegistry::Origin::kSynthesized);
}

TraceParams experiment_params(Property p, int num_processes,
                              std::uint64_t seed, double comm_mu,
                              bool comm_enabled, int internal_events) {
  TraceParams params;
  params.num_processes = num_processes;
  params.internal_events = internal_events;
  params.evt_mu = 3.0;
  params.evt_sigma = 1.0;
  params.comm_mu = comm_mu;
  params.comm_sigma = 1.0;
  params.comm_enabled = comm_enabled;
  params.seed = seed;
  const bool g_shaped = p == Property::kA || p == Property::kC ||
                        p == Property::kD || p == Property::kF;
  if (g_shaped) {
    params.initial_true = true;
    params.true_bias = 0.85;
  } else {
    params.initial_true = false;
    params.true_bias = 0.5;
  }
  return params;
}

}  // namespace decmon::paper

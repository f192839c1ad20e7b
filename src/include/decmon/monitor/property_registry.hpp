// Shared immutable property artifacts and the process-wide property store.
//
// A PropertyArtifact bundles the three objects whose lifetimes are coupled
// by CompiledProperty's internal pointers -- the atom registry, the monitor
// automaton (dispatch table built), and the compiled property -- into one
// immutable, heap-pinned unit. Sessions and monitor replicas share it by
// `shared_ptr<const ...>`: admission of a known property is a lookup plus a
// refcount bump, and no copy of the automaton or its dispatch tables is
// ever made on the hot path.
//
// The CompiledPropertyRegistry is the only property store: one map from
// `formula text` + `atom signature` to artifact. The monitors compiled
// ahead of time by tools/decmon_gen (the checked-in sources under
// src/generated/) pre-populate it; paper::shared_property inserts what it
// synthesizes on a miss. A generated table whose recorded signature no
// longer matches the live registry is refused at registration -- counted
// once in Stats::mismatches -- so its formula misses and is synthesized.
//
// Lifetime rule: clearing the store never invalidates live monitors --
// outstanding shared_ptrs keep their artifact alive until the last session
// drops it (see the clear() contract).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "decmon/ltl/atoms.hpp"
#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/monitor/predicate.hpp"

namespace decmon {

/// Registry + automaton + compiled property as one immutable unit. Neither
/// copyable nor movable: CompiledProperty holds raw pointers into the
/// sibling members, so the artifact lives at a fixed address (always behind
/// a shared_ptr -- see SharedProperty).
class PropertyArtifact {
 public:
  /// Takes ownership of both inputs; builds the automaton's dispatch table
  /// if not already built, then compiles the property against the registry.
  PropertyArtifact(AtomRegistry registry, MonitorAutomaton automaton);

  PropertyArtifact(const PropertyArtifact&) = delete;
  PropertyArtifact& operator=(const PropertyArtifact&) = delete;

  const AtomRegistry& registry() const { return registry_; }
  const MonitorAutomaton& automaton() const { return automaton_; }
  const CompiledProperty& property() const { return property_; }

 private:
  AtomRegistry registry_;
  MonitorAutomaton automaton_;
  CompiledProperty property_;  ///< points into the two members above
};

/// The unit of sharing: one artifact, any number of sessions.
using SharedProperty = std::shared_ptr<const PropertyArtifact>;

/// A handle to the artifact's CompiledProperty that keeps the whole
/// artifact alive (shared_ptr aliasing): what MonitorProcess and
/// DecentralizedMonitor hold.
inline std::shared_ptr<const CompiledProperty> property_handle(
    const SharedProperty& artifact) {
  return std::shared_ptr<const CompiledProperty>(artifact,
                                                 &artifact->property());
}

/// Process-wide store of admitted properties, keyed by key(formula,
/// signature). Thread-safe: lookups share a reader lock, inserts and clears
/// take the writer side. The built-in generated set (src/generated/) is
/// registered on first instance() access.
class CompiledPropertyRegistry {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< find(): a row served the lookup
    std::uint64_t misses = 0;      ///< find(): no row (the caller synthesizes)
    std::uint64_t mismatches = 0;  ///< generated tables refused as stale
  };

  /// Where a row came from: clear_synthesized() drops only synthesized rows.
  enum class Origin : std::uint8_t { kGenerated, kSynthesized };

  static CompiledPropertyRegistry& instance();

  /// The store key: formula text, '|', atom signature.
  static std::string key(std::string formula, const std::string& signature);

  /// The artifact stored under `key`, or nullptr. Counts a hit or a miss;
  /// never synthesizes.
  SharedProperty find(const std::string& key);

  /// Store `artifact` under `key` unless a row is already there, and return
  /// the stored artifact: the first insert wins, so racing synthesizers all
  /// end up sharing one artifact.
  SharedProperty insert(const std::string& key, SharedProperty artifact,
                        Origin origin);

  /// Count a generated table refused because its signature is stale.
  void count_mismatch();

  Stats stats() const;

  /// Drop every row and zero the counters, then re-register the built-in
  /// generated set (tests, benchmarks). Artifacts handed out earlier stay
  /// alive through their outstanding shared_ptrs -- clearing the store
  /// never invalidates a live monitor.
  void clear();

  /// Drop only the synthesized rows; counters and generated rows stay.
  void clear_synthesized();

 private:
  struct Row {
    SharedProperty artifact;
    Origin origin;
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Row> rows_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

}  // namespace decmon

#include "decmon/monitor/property_registry.hpp"

#include <mutex>
#include <utility>

#include "decmon/generated/gen_tables.hpp"

namespace decmon {
namespace {

MonitorAutomaton with_dispatch(MonitorAutomaton m) {
  m.build_dispatch();
  return m;
}

}  // namespace

PropertyArtifact::PropertyArtifact(AtomRegistry registry,
                                   MonitorAutomaton automaton)
    : registry_(std::move(registry)),
      automaton_(with_dispatch(std::move(automaton))),
      property_(&automaton_, &registry_) {}

CompiledPropertyRegistry& CompiledPropertyRegistry::instance() {
  static CompiledPropertyRegistry registry;
  static std::once_flag once;
  // The generated set registers through the reference, never through
  // instance() -- re-entering here would deadlock the call_once.
  std::call_once(once, [] { gen::register_builtin(registry); });
  return registry;
}

std::string CompiledPropertyRegistry::key(std::string formula,
                                          const std::string& signature) {
  formula += '|';
  formula += signature;
  return formula;
}

SharedProperty CompiledPropertyRegistry::find(const std::string& key) {
  std::shared_lock lock(mutex_);
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.artifact;  // refcount bump; the artifact is never copied
}

SharedProperty CompiledPropertyRegistry::insert(const std::string& key,
                                                SharedProperty artifact,
                                                Origin origin) {
  std::unique_lock lock(mutex_);
  return rows_.try_emplace(key, Row{std::move(artifact), origin})
      .first->second.artifact;
}

void CompiledPropertyRegistry::count_mismatch() {
  mismatches_.fetch_add(1, std::memory_order_relaxed);
}

CompiledPropertyRegistry::Stats CompiledPropertyRegistry::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.mismatches = mismatches_.load(std::memory_order_relaxed);
  return s;
}

void CompiledPropertyRegistry::clear() {
  {
    std::unique_lock lock(mutex_);
    rows_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    mismatches_.store(0, std::memory_order_relaxed);
  }
  // Outstanding SharedProperty handles keep the dropped artifacts alive;
  // only the store's own references are gone. Restore the generated set
  // outside the lock (register_builtin re-enters through insert()).
  gen::register_builtin(*this);
}

void CompiledPropertyRegistry::clear_synthesized() {
  std::unique_lock lock(mutex_);
  std::erase_if(rows_, [](const auto& row) {
    return row.second.origin == Origin::kSynthesized;
  });
}

}  // namespace decmon

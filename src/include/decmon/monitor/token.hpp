// Token messages: the monitoring layer's only network traffic (§4.2).
//
// A token is created by a global view to decide whether any of a set of
// possibly-enabled outgoing transitions can fire at a consistent cut
// reachable from the view's cut. Each TransitionEntry carries its own
// partially-constructed cut, the dependency clock used to detect cut
// inconsistencies, and per-process conjunct evaluations; the token routes
// between monitors until every entry is enabled or disabled, then returns
// to its parent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decmon/distributed/message.hpp"
#include "decmon/ltl/atoms.hpp"
#include "decmon/util/small_vec.hpp"
#include "decmon/util/vector_clock.hpp"

namespace decmon {

enum class ConjunctEval : std::uint8_t {
  kUnset,  ///< not (re-)evaluated against the entry's current cut
  kTrue,
  kFalse,  ///< transient within one event evaluation (see Alg. 5)
};

enum class EntryEval : std::uint8_t { kUnset, kTrue, kFalse };

/// One possibly-enabled outgoing transition under evaluation
/// (`OutgoingTransition` in the paper).
///
/// Invariant: `gstate(j)` is the *verified* letter of process j at position
/// `cut(j)` -- entries start from the creating view's cut and the walk
/// examines every event in order (a run that cannot change the entry is
/// passed in one bulk advance), so no frontier position is ever guessed.
///
/// The five per-process arrays the seed kept in parallel heap vectors
/// (cut, depend, gstate, conj, loop_cut/loop_gstate) are flattened into one
/// contiguous block of per-process slots with inline capacity for
/// kInlineProcs processes: constructing, copying and re-targeting an entry
/// is pure memcpy traffic, and all of a process's fields share a cache line.
class TransitionEntry {
 public:
  static constexpr std::size_t kInlineProcs = 8;

  /// All per-process state of the entry for one process.
  struct ProcSlot {
    /// Constructed cut: sequence number of the last included event. Also
    /// the frontier vector clock component.
    std::uint32_t cut = 0;
    /// Max vector clock over the events included; cut < depend means the
    /// cut is inconsistent at this process.
    std::uint32_t depend = 0;
    /// Component of the last certified "the path can stay here" cut.
    std::uint32_t loop_cut = 0;
    /// Conjunct evaluation of this process.
    ConjunctEval conj = ConjunctEval::kUnset;
    /// Local letter at the cut's frontier.
    AtomSet gstate = 0;
    /// Believed letter at the certified stay-point.
    AtomSet loop_gstate = 0;
  };

  int transition_id = -1;
  EntryEval eval = EntryEval::kUnset;
  /// Last consistent cut the walk passed where the believed letter kept the
  /// source state on a self-loop: a certified "the path can stay here"
  /// point, used to resurrect launchpad views (see MonitorProcess).
  bool loop_certified = false;
  int next_target_process = -1;
  std::uint32_t next_target_event = 0;

  /// (Re-)initialize the per-process block to `n` zeroed slots.
  void set_width(std::size_t n) {
    slot_bytes_ = 0;
    slots_.assign(n, ProcSlot{});
  }
  std::size_t width() const { return slots_.size(); }

  // Every non-const accessor may hand out a slot for writing, so each one
  // clears the wire-size cache (see cached_slot_bytes).
  std::uint32_t& cut(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].cut;
  }
  std::uint32_t cut(std::size_t j) const { return slots_[j].cut; }
  std::uint32_t& depend(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].depend;
  }
  std::uint32_t depend(std::size_t j) const { return slots_[j].depend; }
  std::uint32_t& loop_cut(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].loop_cut;
  }
  std::uint32_t loop_cut(std::size_t j) const { return slots_[j].loop_cut; }
  ConjunctEval& conj(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].conj;
  }
  ConjunctEval conj(std::size_t j) const { return slots_[j].conj; }
  AtomSet& gstate(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].gstate;
  }
  AtomSet gstate(std::size_t j) const { return slots_[j].gstate; }
  AtomSet& loop_gstate(std::size_t j) {
    slot_bytes_ = 0;
    return slots_[j].loop_gstate;
  }
  AtomSet loop_gstate(std::size_t j) const { return slots_[j].loop_gstate; }

  ProcSlot* slots() {
    slot_bytes_ = 0;
    return slots_.data();
  }
  const ProcSlot* slots() const { return slots_.data(); }

  /// Wire-size cache of frame_wire_size (DESIGN.md §9.4): the encoded bytes
  /// of the entry's width and per-slot arrays -- cut deltas against the
  /// owning token's parent_vc, depend, gstate, conj and, when certified,
  /// the loop slots -- or 0 when not known. Every mutator clears it, and it
  /// is only valid under the `loop_certified` value it was sized with (that
  /// flag is a public field, so no accessor sees it change).
  ///
  /// Invariant: entries are built only by the monitor's probe and the wire
  /// decoder (both leave the cache empty) and never move between tokens,
  /// and a token's parent_vc is fixed before its entries are first sized.
  /// A copied entry therefore carries a cache that is valid for the
  /// parent_vc copied with it.
  std::size_t cached_slot_bytes() const {
    return sized_loop_certified_ == loop_certified ? slot_bytes_ : 0;
  }
  void cache_slot_bytes(std::size_t bytes) const {
    slot_bytes_ = static_cast<std::uint32_t>(bytes);
    sized_loop_certified_ = loop_certified;
  }

  /// depend := max(depend, vc), component-wise.
  void merge_depend(const VectorClock& vc) {
    slot_bytes_ = 0;
    ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (vc[j] > s[j].depend) s[j].depend = vc[j];
    }
  }

  /// depend := max(depend, cut), component-wise (the frontier itself is
  /// always covered by the dependency clock).
  void raise_depend_to_cut() {
    slot_bytes_ = 0;
    ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (s[j].cut > s[j].depend) s[j].depend = s[j].cut;
    }
  }

  /// True iff cut(j) >= depend(j) everywhere (the cut is consistent).
  bool cut_covers_depend() const {
    const ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (s[j].cut < s[j].depend) return false;
    }
    return true;
  }

  /// Union of the per-process frontier letters.
  AtomSet combined_gstate() const {
    AtomSet a = 0;
    const ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) a |= s[j].gstate;
    return a;
  }

  /// Record the current cut/gstate as a certified stay-point.
  void certify_loop() {
    slot_bytes_ = 0;
    loop_certified = true;
    ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      s[j].loop_cut = s[j].cut;
      s[j].loop_gstate = s[j].gstate;
    }
  }

  /// Sum of the certified stay-point's cut components (advancement order).
  std::uint64_t loop_cut_total() const {
    std::uint64_t t = 0;
    const ProcSlot* s = slots_.data();
    for (std::size_t j = 0; j < slots_.size(); ++j) t += s[j].loop_cut;
    return t;
  }

  std::string to_string() const;

 private:
  SmallVec<ProcSlot, kInlineProcs> slots_;
  mutable std::uint32_t slot_bytes_ = 0;
  mutable bool sized_loop_certified_ = false;
};

/// A monitoring message (`token` in the paper).
struct Token {
  std::uint64_t token_id = 0;  ///< globally unique: (parent << 32) | counter
  int parent = -1;             ///< creating monitor
  std::uint32_t parent_sn = 0; ///< local event that created the token
  VectorClock parent_vc;
  std::vector<TransitionEntry> entries;
  int next_target_process = -1;
  std::uint32_t next_target_event = 0;
  int hops = 0;  ///< network hops so far (metrics)

  bool has_live_entries() const;
  std::string to_string() const;
};

/// Network payloads of the monitoring layer.
struct TokenMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 1;
  TokenMessage() : NetPayload(kTag) {}
  Token token;

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<TokenMessage>();
    copy->token = token;
    return copy;
  }
};

struct TerminationMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 2;
  TerminationMessage() : NetPayload(kTag) {}
  int process = -1;
  std::uint32_t last_sn = 0;  ///< last event the process produced

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<TerminationMessage>();
    copy->process = process;
    copy->last_sn = last_sn;
    return copy;
  }
};

/// Streaming-GC gossip (DESIGN.md §12): the sender promises that no token
/// walk or view spawn it can still launch references the receiver's events
/// below `floor`. Within one epoch floors are monotone at the receiver
/// (max-merge), so duplicated or reordered copies are harmless. `epoch`
/// rises when the sender restarts from a checkpoint (DESIGN.md §13): a
/// higher epoch REPLACES the stored floor -- the one case where a floor may
/// legitimately regress -- and reordered stale advertisements from the
/// pre-crash epoch are ignored rather than re-raising the clamped value.
struct HistoryFloorMessage final : NetPayload {
  static constexpr std::uint8_t kTag = 6;
  HistoryFloorMessage() : NetPayload(kTag) {}
  int process = -1;          ///< sender index
  std::uint32_t floor = 0;   ///< receiver-local sequence number bound
  std::uint32_t epoch = 0;   ///< sender's advertisement epoch (crash count)

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<HistoryFloorMessage>();
    copy->process = process;
    copy->floor = floor;
    copy->epoch = epoch;
    return copy;
  }
};

}  // namespace decmon

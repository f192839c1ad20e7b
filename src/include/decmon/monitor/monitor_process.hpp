// MonitorProcess: one decentralized monitor replica M_i (Algorithms 1-5).
//
// The monitor is a pure state machine: it receives local events, tokens and
// termination signals through methods, and sends tokens through an injected
// MonitorNetwork. It performs no I/O and keeps no threads of its own, so
// the same object runs under the deterministic simulator, the real-thread
// runtime, and direct unit tests.
//
// Responsibilities (paper section in parentheses):
//   * maintain the set of global views tracing lattice paths (4.2)
//   * evaluate the deterministic automaton on consistent local advances
//   * create and route tokens to detect conjunctive predicates at
//     consistent cuts, distributed-slicing style (4.1 problem 1, 4.2)
//   * fork views at pivot global states, merge equivalent views (4.1
//     problems 2-3, 4.3.2)
//   * flush waiting tokens on termination so every token returns
//     (4.2.0.10, Lemma 1)
//
// Memory discipline (see DESIGN.md §6): the steady-state token path is
// allocation-free. Tokens, token-message shells and global views are
// recycled through per-monitor free lists (each monitor's pools are touched
// only from its own dispatch context, so they need no locks), and all
// per-process arrays have inline small-buffer storage.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "decmon/automata/monitor_automaton.hpp"
#include "decmon/distributed/event.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/monitor/global_view.hpp"
#include "decmon/monitor/predicate.hpp"
#include "decmon/monitor/stats.hpp"
#include "decmon/monitor/token.hpp"
#include "decmon/util/small_vec.hpp"

namespace decmon {

/// How token entries search for satisfying cuts.
enum class WalkMode : std::uint8_t {
  /// Entries start at the view's cut and examine every intermediate event,
  /// verifying self-loop feasibility at each consistent frontier: sound
  /// definite verdicts, at the cost of longer token walks (default).
  kExact,
  /// The thesis's behaviour: entries start at the join max(gcut, e.VC),
  /// skipping the intermediate cuts. Cheaper -- message overhead stays
  /// linear in the events, as Fig. 5.4/5.5 report -- but admits verdicts on
  /// paths that do not exist (see EXPERIMENTS.md for a pinned example).
  kJoinJump,
};

/// An intentional resource bound tripped (max_views or max_history): the
/// monitored run exceeded its configured budget. Derives from
/// std::length_error so existing cap handling keeps working, but is a
/// distinct type so harnesses can tell "hit the configured bound" from a
/// genuine error. The throwing monitor is left in a valid, checkpointable
/// state (no half-applied mutation, all staged sends flushed).
class MonitorOverflow : public std::length_error {
 public:
  using std::length_error::length_error;
};

struct MonitorOptions {
  WalkMode walk_mode = WalkMode::kExact;

  /// Suppress duplicate probes for the same (state, transition set, belief)
  /// signature (optimization §4.3.2).
  bool dedupe_probes = true;

  /// When an enabled transition spawns a view, delete sibling entries that
  /// target the same automaton state (optimization §4.3.3).
  bool prune_same_destination = true;

  /// Stop probing from states where no definite verdict is reachable any
  /// more (automaton static analysis, future-work 7.2.2): the verdict is
  /// settled at '?' forever, so tokens there are pure overhead.
  bool prune_settled_states = true;

  /// Drop views subsumed by another view at the same automaton state with a
  /// larger cut agreeing on the shared frontier (the slice-merge side of
  /// 4.3.2); keeps the live view count near the automaton size.
  bool subsume_views = true;

  /// Keep at most one settled view per automaton state (the most advanced
  /// cut). This is the aggressive reading of the paper's merge ("the final
  /// number of global views is bounded by the number of automaton states",
  /// 4.4.1) and what keeps its overhead linear; the dropped views' unprobed
  /// branches are covered by the surviving view and the peers' probes.
  bool merge_by_state = true;

  /// Route tokens preferring transitions whose target state is closer to a
  /// definite verdict (automaton static analysis, future-work 7.2.2 /
  /// SendToNextProcess tuning note in 4.2.0.8).
  bool prioritize_near_verdict = true;

  /// Hard cap on simultaneously live views (debugging guard; 0 = none).
  std::size_t max_views = 0;

  /// Streaming posture (DESIGN.md §12): periodically trim the prefix of the
  /// shared history that no live lattice path -- local or remote -- can
  /// revisit, behind a base-offset indirection so cursors stay stable.
  /// Monitors gossip per-process GC floors so remote walks are never cut
  /// off. Off by default: finite-trace runs keep the full history and send
  /// no floor messages, so their goldens are untouched.
  bool streaming = false;
  /// Local events between GC sweeps (floor gossip + prefix trim) when
  /// streaming; 0 falls back to the default cadence.
  std::uint32_t gc_interval = 64;
  /// Hard cap on the retained history window (events kept after GC; 0 =
  /// none). Exceeding it throws MonitorOverflow -- the memory analogue of
  /// max_views.
  std::size_t max_history = 0;

  /// Optional trace sink: receives one line per significant monitor action
  /// (probe creation, entry resolution, view spawn/resurrect). For
  /// debugging and the examples' verbose modes; null = silent.
  std::function<void(const std::string&)> trace;
};

class CheckpointCodec;

class MonitorProcess {
 public:
  /// `initial_letters[p]` is process p's local letter at its initial state
  /// (the monitor receives the initial global state as input, Alg. 1).
  /// The shared overload pins the property's owning artifact for the
  /// replica's lifetime; the raw-pointer overload wraps a non-owning handle
  /// (caller guarantees the property outlives the replica).
  MonitorProcess(int index, std::shared_ptr<const CompiledProperty> property,
                 MonitorNetwork* network,
                 std::vector<AtomSet> initial_letters,
                 MonitorOptions options = {});
  MonitorProcess(int index, const CompiledProperty* property,
                 MonitorNetwork* network,
                 std::vector<AtomSet> initial_letters,
                 MonitorOptions options = {})
      : MonitorProcess(index,
                       std::shared_ptr<const CompiledProperty>(
                           std::shared_ptr<const void>(), property),
                       network, std::move(initial_letters), options) {}

  // -- runtime-facing interface --
  void on_local_event(const Event& event, double now);
  void on_local_termination(double now);
  void on_token(Token token, double now);
  void on_peer_termination(int peer, std::uint32_t last_sn, double now);
  /// Deliver a batched frame: each unit dispatches like a bare token /
  /// termination message, and the responses the units provoke are
  /// themselves flushed as batched frames when the whole frame is done.
  /// Takes ownership of the frame shell (it lands in this monitor's pool).
  void on_frame(std::unique_ptr<PayloadFrame> frame, double now);
  /// GC floor gossip from `peer` (streaming posture): the peer's live views
  /// will never again reference our events below `floor`. Monotone within
  /// one `epoch` -- duplicated or reordered floors are absorbed by the max.
  /// A higher epoch (the peer restarted from a checkpoint) REPLACES the
  /// stored floor, clamping it down to the rewound promise; floors from a
  /// lower (pre-crash) epoch are stale and ignored (DESIGN.md §13).
  void on_history_floor(int peer, std::uint32_t floor, std::uint32_t epoch,
                        double now);
  /// Floor-resync handshake (DESIGN.md §13): called by the recovery layer
  /// after this monitor is restored from a checkpoint. Bumps the
  /// advertisement epoch and re-advertises the restored (possibly rewound)
  /// per-peer floors so peers clamp their folds instead of trusting the
  /// pre-crash promises. No-op outside the streaming posture.
  void resync_floors(double now);

  /// Return a drained TokenMessage shell (its token moved out) to this
  /// monitor's free list: the next token this monitor sends reuses it.
  /// Called by the dispatch layer from this monitor's own node context.
  void recycle_token_payload(std::unique_ptr<TokenMessage> shell);

  // -- results --
  int index() const { return index_; }

  /// Monitor fully drained: program over everywhere, no waiting or
  /// outstanding tokens.
  bool finished() const { return finished_; }

  /// Automaton states currently held by live views.
  std::set<int> current_states() const;

  /// Verdicts of the current views, plus any definite verdict declared
  /// earlier (final states are absorbing so they persist in views too).
  std::set<Verdict> verdicts() const;

  /// Definite verdicts declared so far (satisfaction/violation events).
  const std::set<Verdict>& declared() const { return declared_; }

  const MonitorStats& stats() const { return stats_; }
  std::size_t num_views() const;
  std::size_t num_waiting_tokens() const { return w_tokens_.size(); }
  /// First retained history sequence number (0 unless streaming GC trimmed).
  std::uint32_t history_base() const { return history_base_; }
  /// Retained history window size (events currently held).
  std::size_t history_size() const { return history_.size(); }
  /// One past the last appended sequence number (the pre-GC history size).
  std::uint32_t history_end() const {
    return history_base_ + static_cast<std::uint32_t>(history_.size());
  }
  /// The highest sequence number safe to trim below: the min over live-view
  /// cursors, parked-token cuts, and the gossiped peer floors (so the fold
  /// driven by on_history_floor is observable without touching internals).
  std::uint32_t trim_bound() const;
  /// Streaming GC sweep: gossip our per-peer floors, then trim the history
  /// prefix no live path -- local cursor, parked token, or remote walk
  /// (bounded by the gossiped peer floors) -- can revisit. Driven on the
  /// gc_interval cadence internally; public so recovery tooling and tests
  /// can force a sweep at an exact boundary.
  void gc_sweep(double now);

  /// Callback invoked on each declared satisfaction/violation (optional).
  using VerdictCallback = std::function<void(Verdict, double now)>;
  void set_verdict_callback(VerdictCallback cb) { on_verdict_ = std::move(cb); }

 private:
  // -- shared history window (DESIGN.md §12) --
  /// Event by absolute sequence number; `sn` must lie in the retained
  /// window [history_base_, history_end()).
  const Event& event_at(std::uint32_t sn) const {
    return history_[static_cast<std::size_t>(sn - history_base_)];
  }
  /// Stage one HistoryFloorMessage per peer carrying the current per-peer
  /// floors (min live-view cut component) under floor_epoch_. Silent when no
  /// view is live: the last advertisement then stands and is vacuously
  /// satisfiable, since every future walk descends from an existing view.
  void advertise_floors();

  // -- event path (Alg. 2) --
  void drain(GlobalView& gv, double now);
  void process_event(GlobalView& gv, const Event& e, double now);
  /// Probe the outgoing transitions of gv.q (plus those of
  /// `extra_from_state` when >= 0 -- the pre-advance state, whose other
  /// branches remain reachable through concurrent remote events).
  void probe_outgoing(GlobalView& gv, const Event& e, bool consistent,
                      double now, int extra_from_state = -1);

  // -- token path (Alg. 3-5) --
  /// Walk the token over local history from its target event; parks it in
  /// w_tokens_ when the event has not happened yet.
  void process_token(Token token, double now);
  /// One visit's walk over the retained window (Alg. 4-5): only the live
  /// entries targeting this monitor move, each stepped at its own target,
  /// and runs of events that are uneventful for all of them are passed in
  /// one bulk advance (DESIGN.md §6.2). Stops when an entry enables, no
  /// entry targets this monitor any more, or the walk reaches the window
  /// edge; the caller then routes once.
  void walk_token(Token& token);
  /// Apply local event `e` to one entry targeting it, then resolve or
  /// retarget the entry.
  void step_entry(TransitionEntry& entry, const Event& e);
  /// Retarget entries after evaluation; returns false when the token wants
  /// to stay at this monitor (waiting for a later local event). On true the
  /// token has been consumed (sent, recycled, or handled as returned).
  bool route_token(Token& token, double now);
  /// Handle a token created here that has come home.
  void handle_returned_token(Token token, double now);
  /// Create the view for an enabled entry's pivot cut; its cursor starts
  /// just past the cut's local component, replaying the shared history.
  void spawn_view(const TransitionEntry& entry, double now);

  // -- send coalescing (DESIGN.md §9) --
  /// Queue an outgoing payload for `dest`. Nothing touches the network
  /// until flush_staged() at the end of the current top-level dispatch, so
  /// a burst of token hops to one peer leaves as one frame.
  void stage_send(int dest, std::unique_ptr<NetPayload> unit);
  /// Group the staged sends into per-destination frames (consecutive
  /// same-destination runs, preserving send order) and hand them to the
  /// network. No-op while a dispatch is still on the stack.
  void flush_staged();

  // -- free lists (all used from this monitor's dispatch context only) --
  Token acquire_token();
  void recycle_token(Token&& token);
  std::unique_ptr<TokenMessage> acquire_token_payload();
  std::unique_ptr<PayloadFrame> acquire_frame();
  void recycle_frame(std::unique_ptr<PayloadFrame> frame);
  GlobalView acquire_view();

  // -- bookkeeping --
  GlobalView* find_view_by_token(std::uint64_t token_id);
  void declare(int q, double now);
  void merge_similar_views();
  void sweep_dead_views();
  void flush_waiting_tokens(double now);
  void check_finished(double now);
  void sample_pending();
  std::uint64_t probe_signature(const GlobalView& gv,
                                const SmallVec<int, 32>& tids) const;

  int index_;
  int n_;
  /// Shared read-only with every other replica and session on the same
  /// property; the shared_ptr (usually aliasing a PropertyArtifact) keeps
  /// the automaton + registry it points into alive.
  std::shared_ptr<const CompiledProperty> prop_;
  MonitorNetwork* net_;
  MonitorOptions options_;

  /// Local events by sn (0 = initial). Shared, append-only: views index
  /// into it with their next_sn cursors instead of holding event copies.
  /// Under the streaming posture gc_sweep trims a prefix; history_[k] then
  /// holds the event with absolute sn == history_base_ + k (use event_at).
  std::vector<Event> history_;
  /// Absolute sn of history_[0]; 0 until streaming GC first trims.
  std::uint32_t history_base_ = 0;
  /// Per-peer GC floors received via gossip: peer j's live views never
  /// reference our events below peer_floor_[j]. Monotone nondecreasing
  /// within peer_floor_epoch_[j]; a peer's epoch bump (crash + restore)
  /// replaces the slot, the one sanctioned regression (DESIGN.md §13).
  std::vector<std::uint32_t> peer_floor_;
  /// Advertisement epoch of the stored peer_floor_[j] value.
  std::vector<std::uint32_t> peer_floor_epoch_;
  /// Our own advertisement epoch: bumped by resync_floors after a
  /// checkpoint restore, stamped on every outgoing floor message.
  std::uint32_t floor_epoch_ = 0;
  /// Local events since the last gc_sweep (streaming cadence counter).
  std::uint32_t events_since_gc_ = 0;
  /// Deque: views are pushed while references to existing views are live on
  /// the dispatch stack; deque growth never invalidates references.
  std::deque<GlobalView> views_;
  std::vector<Token> w_tokens_;  ///< tokens waiting for future local events
  std::vector<std::uint32_t> peer_last_sn_;  ///< UINT32_MAX = running
  bool local_terminated_ = false;
  bool finished_ = false;
  int dispatch_depth_ = 0;  ///< guards view-vector sweeps during re-entrancy

  /// Outgoing payloads staged during the current dispatch; drained by
  /// flush_staged() when the top-level entry point unwinds. The vector (and
  /// each pooled frame's unit vector) keeps its capacity across flushes, so
  /// steady-state staging allocates nothing.
  struct StagedSend {
    int dest;
    std::unique_ptr<NetPayload> unit;
  };
  std::vector<StagedSend> staged_;

  /// Free lists. Tokens and views recycle their spilled capacity; payload
  /// shells recycle the TokenMessage object itself (the receiver returns
  /// the husk after moving the token out); frame shells circulate the same
  /// way through on_frame. Bounded so pathological runs cannot hoard
  /// memory.
  std::vector<Token> token_pool_;
  std::vector<std::unique_ptr<TokenMessage>> payload_pool_;
  std::vector<std::unique_ptr<PayloadFrame>> frame_pool_;
  std::vector<GlobalView> view_pool_;

  /// Scratch for merge_similar_views (never re-entered; capacity persists).
  std::vector<GlobalView*> merge_settled_;
  std::unordered_map<std::uint64_t, GlobalView*> merge_seen_;
  std::vector<GlobalView*> merge_best_;

  /// Outstanding probe signatures (dedupe in O(1); mirrors the waiting
  /// views' probe_sig fields).
  std::unordered_set<std::uint64_t> outstanding_sigs_;

  /// (state, cut) pairs ever spawned: a pivot detected twice (by different
  /// tokens) must not fork twice -- the first view already traces that
  /// path. Bounds the spawn cascade on wide lattices.
  std::unordered_set<std::uint64_t> spawned_memo_;

  std::uint64_t next_token_serial_ = 1;
  std::uint64_t next_view_id_ = 1;
  std::set<Verdict> declared_;
  VerdictCallback on_verdict_;
  MonitorStats stats_;

  /// Serializes/restores the algorithmic state above for crash recovery
  /// (checkpoint.hpp). Pools, merge scratch, callbacks and stats are
  /// explicitly not state.
  friend class CheckpointCodec;
};

}  // namespace decmon

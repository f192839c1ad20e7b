#include "decmon/monitor/monitor_process.hpp"

#include <algorithm>
#include <climits>
#include <cassert>
#include <stdexcept>

#include "decmon/monitor/wire.hpp"

namespace decmon {
namespace {

/// RAII guard for re-entrancy depth tracking.
class DepthGuard {
 public:
  explicit DepthGuard(int& depth) : depth_(depth) { ++depth_; }
  ~DepthGuard() { --depth_; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

 private:
  int& depth_;
};

constexpr std::uint32_t kRunning = 0xFFFFFFFFu;

/// Free-list bounds: generous for real runs, tight enough that a
/// pathological run cannot hoard memory through the pools.
constexpr std::size_t kMaxPooledTokens = 128;
constexpr std::size_t kMaxPooledPayloads = 128;
constexpr std::size_t kMaxPooledFrames = 32;
constexpr std::size_t kMaxPooledViews = 128;

}  // namespace

MonitorProcess::MonitorProcess(int index,
                               std::shared_ptr<const CompiledProperty> property,
                               MonitorNetwork* network,
                               std::vector<AtomSet> initial_letters,
                               MonitorOptions options)
    : index_(index),
      n_(property->num_processes()),
      prop_(std::move(property)),
      net_(network),
      options_(options),
      peer_floor_(static_cast<std::size_t>(n_), 0),
      peer_floor_epoch_(static_cast<std::size_t>(n_), 0),
      peer_last_sn_(static_cast<std::size_t>(n_), kRunning) {
  if (static_cast<int>(initial_letters.size()) != n_) {
    throw std::invalid_argument("MonitorProcess: bad initial_letters size");
  }
  if (options_.gc_interval == 0) options_.gc_interval = 64;
  // INIT (Alg. 1): the initial global view points at the bottom cut; the
  // initial global state is the first letter the automaton consumes.
  Event init;
  init.type = EventType::kInitial;
  init.process = index_;
  init.sn = 0;
  init.vc = VectorClock(static_cast<std::size_t>(n_));
  init.letter = initial_letters[static_cast<std::size_t>(index_)];
  history_.push_back(init);
  stats_.peak_history = 1;

  GlobalView gv0;
  gv0.id = next_view_id_++;
  gv0.cut.assign(static_cast<std::size_t>(n_), 0);
  gv0.gstate.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    gv0.gstate[static_cast<std::size_t>(j)] =
        initial_letters[static_cast<std::size_t>(j)];
  }
  gv0.next_sn = static_cast<std::uint32_t>(history_.size());  // consumed sn 0
  gv0.q = prop_->step(prop_->initial_state(), gv0.combined_letter());
  ++stats_.global_views_created;
  views_.push_back(std::move(gv0));
  declare(views_.back().q, 0.0);
  if (!prop_->is_final(views_.back().q)) {
    DepthGuard guard(dispatch_depth_);
    probe_outgoing(views_.back(), history_[0], /*consistent=*/true, 0.0);
  }
  sweep_dead_views();
  flush_staged();
}

std::size_t MonitorProcess::num_views() const {
  std::size_t count = 0;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) ++count;
  }
  return count;
}

std::set<int> MonitorProcess::current_states() const {
  std::set<int> states;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) states.insert(gv.q);
  }
  return states;
}

std::set<Verdict> MonitorProcess::verdicts() const {
  std::set<Verdict> out = declared_;
  for (int q : current_states()) out.insert(prop_->verdict(q));
  return out;
}

void MonitorProcess::declare(int q, double now) {
  const Verdict v = prop_->verdict(q);
  if (v == Verdict::kUnknown) return;
  const bool fresh = declared_.insert(v).second;
  if (fresh && on_verdict_) on_verdict_(v, now);
}

// ---------------------------------------------------------------------------
// Free lists
// ---------------------------------------------------------------------------

Token MonitorProcess::acquire_token() {
  if (token_pool_.empty()) return Token{};
  Token t = std::move(token_pool_.back());
  token_pool_.pop_back();
  t.token_id = 0;
  t.parent = -1;
  t.parent_sn = 0;
  t.entries.clear();  // keeps the entry vector's capacity
  t.next_target_process = -1;
  t.next_target_event = 0;
  t.hops = 0;
  return t;
}

void MonitorProcess::recycle_token(Token&& token) {
  if (token_pool_.size() < kMaxPooledTokens) {
    token_pool_.push_back(std::move(token));
  }
}

std::unique_ptr<TokenMessage> MonitorProcess::acquire_token_payload() {
  if (payload_pool_.empty()) return std::make_unique<TokenMessage>();
  std::unique_ptr<TokenMessage> shell = std::move(payload_pool_.back());
  payload_pool_.pop_back();
  return shell;
}

void MonitorProcess::recycle_token_payload(
    std::unique_ptr<TokenMessage> shell) {
  if (shell && payload_pool_.size() < kMaxPooledPayloads) {
    payload_pool_.push_back(std::move(shell));
  }
}

std::unique_ptr<PayloadFrame> MonitorProcess::acquire_frame() {
  if (frame_pool_.empty()) return std::make_unique<PayloadFrame>();
  std::unique_ptr<PayloadFrame> frame = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return frame;
}

void MonitorProcess::recycle_frame(std::unique_ptr<PayloadFrame> frame) {
  if (frame && frame_pool_.size() < kMaxPooledFrames) {
    frame->units.clear();  // keeps the unit vector's capacity
    frame_pool_.push_back(std::move(frame));
  }
}

GlobalView MonitorProcess::acquire_view() {
  GlobalView v;
  if (!view_pool_.empty()) {
    v = std::move(view_pool_.back());
    view_pool_.pop_back();
    v.id = 0;
    v.q = 0;
    v.waiting = false;
    v.token_id = 0;
    v.forked_copy = false;
    v.next_sn = 0;
    v.probe_sig = 0;
    v.dead = false;
    v.quarantined = false;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Send coalescing (DESIGN.md §9)
// ---------------------------------------------------------------------------

void MonitorProcess::stage_send(int dest, std::unique_ptr<NetPayload> unit) {
  staged_.push_back(StagedSend{dest, std::move(unit)});
}

void MonitorProcess::flush_staged() {
  // Flushing mid-dispatch would both break batching (each response would
  // leave alone) and reorder sends relative to the staging sequence; the
  // top-level entry point flushes once when its dispatch fully unwinds.
  if (dispatch_depth_ > 0 || staged_.empty()) return;
  std::size_t i = 0;
  while (i < staged_.size()) {
    const int dest = staged_[i].dest;
    std::unique_ptr<PayloadFrame> frame = acquire_frame();
    // One frame per consecutive same-destination run: this preserves the
    // inter-destination send order exactly (a full per-destination sort
    // would reorder sends and with them the simulator's latency-draw
    // sequence, perturbing the schedule goldens).
    do {
      frame->units.push_back(std::move(staged_[i].unit));
      ++i;
    } while (i < staged_.size() && staged_[i].dest == dest);
    // One size walk: the frame's encoded size, without materializing bytes
    // (DESIGN.md §9.4).
    stats_.bytes_sent += frame_wire_size(*frame);
    ++stats_.frames_sent;
    net_->send(MonitorMessage{index_, dest, std::move(frame)});
  }
  staged_.clear();
}

// ---------------------------------------------------------------------------
// Event path (Alg. 2)
// ---------------------------------------------------------------------------

void MonitorProcess::on_local_event(const Event& event, double now) {
  try {
  {
  DepthGuard guard(dispatch_depth_);
  if (event.sn != history_end()) {
    throw std::logic_error("MonitorProcess: out-of-order local event");
  }
  history_.push_back(event);
  stats_.peak_history =
      std::max<std::uint64_t>(stats_.peak_history, history_.size());
  ++stats_.events_processed;

  // Tokens parked for this event (Alg. 2 lines 4-8). Extract first: token
  // processing can re-park or spawn views. Tokens parked during this loop
  // always target future events, so they never match the condition.
  for (std::size_t i = 0; i < w_tokens_.size();) {
    if (w_tokens_[i].next_target_process == index_ &&
        w_tokens_[i].next_target_event <= event.sn) {
      Token t = std::move(w_tokens_[i]);
      w_tokens_.erase(w_tokens_.begin() + static_cast<std::ptrdiff_t>(i));
      process_token(std::move(t), now);
      // The erase shifted the next candidate into slot i.
    } else {
      ++i;
    }
  }

  // Advance every existing view's cursor over the shared history; no event
  // is copied anywhere. Views appended during the loop were created with
  // cuts/cursors already covering this event and drained at spawn.
  const std::size_t count = views_.size();
  for (std::size_t idx = 0; idx < count; ++idx) {
    GlobalView& gv = views_[idx];
    if (gv.dead) continue;
    if (gv.waiting) ++stats_.events_delayed;
    drain(gv, now);
  }
  sample_pending();
  merge_similar_views();
  sweep_dead_views();
  if (options_.streaming && ++events_since_gc_ >= options_.gc_interval) {
    events_since_gc_ = 0;
    gc_sweep(now);
  }
  if (options_.max_history && history_.size() > options_.max_history) {
    // The retained window outgrew its budget even after GC: surface the
    // bound. Nothing is half-applied -- the event fully dispatched -- so
    // the monitor stays valid and checkpointable.
    throw MonitorOverflow("MonitorProcess: history cap exceeded");
  }
  }  // dispatch scope: the flush below must see depth 0
  } catch (const MonitorOverflow&) {
    // An intentional bound tripped mid-dispatch. The DepthGuard has already
    // unwound, so the staged sends can leave before the throw surfaces --
    // checkpointing refuses monitors with staged traffic.
    flush_staged();
    throw;
  }
  flush_staged();
}

void MonitorProcess::drain(GlobalView& gv, double now) {
  // history_ only grows at the top of on_local_event -- never during a
  // dispatch -- so the reference into it stays valid across process_event
  // (which can spawn views, walk tokens and recurse back into drain).
  while (!gv.dead && !gv.waiting && gv.next_sn < history_end()) {
    const Event& e = event_at(gv.next_sn++);
    process_event(gv, e, now);
  }
}

void MonitorProcess::process_event(GlobalView& gv, const Event& e,
                                   double now) {
  gv.cut[static_cast<std::size_t>(index_)] = e.sn;
  gv.gstate[static_cast<std::size_t>(index_)] = e.letter;
  if (prop_->is_final(gv.q)) return;  // absorbing verdict

  // Consistency: the event must not know more about any peer than the view
  // does (Alg. 2 line 20).
  bool consistent = true;
  for (int j = 0; j < n_; ++j) {
    if (j == index_) continue;
    if (gv.cut[static_cast<std::size_t>(j)] <
        e.vc[static_cast<std::size_t>(j)]) {
      consistent = false;
      break;
    }
  }

  const int q_old = gv.q;
  if (consistent) {
    // Deterministic step on the believed global state (one letter per
    // event; Alg. 2 lines 21-25).
    const MonitorTransition* t = prop_->match(gv.q, gv.combined_letter());
    if (!t) {
      throw std::logic_error("MonitorProcess: incomplete automaton");
    }
    if (!t->self_loop()) {
      gv.q = t->to;
      declare(gv.q, now);
    }
  }
  // Probe from the post-advance state AND, when the step left q_old, from
  // q_old as well: concurrent remote events can enable a *different* branch
  // out of q_old at a cut containing this event (e.g. the paper's running
  // example, where the path through <e1_1, e2_2> reaches q1 although the
  // local path went to the violation state). Design note: the thesis only
  // probes from the new state, which loses such paths. Quarantined views
  // never probe: their position cannot anchor a sound token walk.
  if (!gv.quarantined) {
    probe_outgoing(gv, e, consistent, now, q_old != gv.q ? q_old : -1);
  }
}

std::uint64_t MonitorProcess::probe_signature(
    const GlobalView& gv, const SmallVec<int, 32>& tids) const {
  // Only atoms the automaton reads matter: beliefs differing in irrelevant
  // variables describe the same probe.
  const AtomSet relevant = prop_->relevant_atoms();
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(gv.q));
  for (int t : tids) mix(static_cast<std::uint64_t>(t) + 1);
  for (AtomSet s : gv.gstate) mix((s & relevant) ^ 0x5bd1e995u);
  return h;
}

void MonitorProcess::probe_outgoing(GlobalView& gv, const Event& e,
                                    bool consistent, double now,
                                    int extra_from_state) {
  // Soundness of a probe entry rests on where its source state is
  // *certified*:
  //   - "at-cut" entries (the view's state after a consistent step that
  //     consumed e): start at the cut including e;
  //   - "pre-cut" entries (the pre-advance state q_old whose other branches
  //     remain reachable through concurrent remote events, and the view's
  //     state on an inconsistent event, which never consumed e's cut): start
  //     at the cut *before* e -- the walk re-applies e itself, with the
  //     self-loop feasibility check, like any other event.
  // Design note: the thesis starts every entry at the join max(gcut, e.VC),
  // skipping intermediate cuts entirely; that admits firings on paths that
  // do not exist (unsound, e.g. for X-shaped states without self-loops).
  struct Candidate {
    int tid;
    bool pre_cut;
  };
  auto prunable = [&](int q) {
    // Final states have no outgoing transitions; settled states (no
    // definite verdict reachable, 7.2.2) are not worth probing.
    return prop_->is_final(q) ||
           (options_.prune_settled_states && prop_->verdict_settled(q));
  };
  SmallVec<Candidate, 32> candidates;
  if (!prunable(gv.q)) {
    for (int tid : prop_->outgoing(gv.q)) {
      candidates.push_back({tid, !consistent});
    }
  }
  if (extra_from_state >= 0 && !prunable(extra_from_state)) {
    for (int tid : prop_->outgoing(extra_from_state)) {
      candidates.push_back({tid, true});
    }
  }
  if (candidates.empty()) return;

  const AtomSet pre_letter =
      event_at(e.sn - (e.sn > 0 ? 1 : 0)).letter;

  // Entries are built directly into a pooled token; if the probe turns out
  // empty or a duplicate, the token (and its capacity) goes back unsent.
  Token token = acquire_token();
  SmallVec<int, 32> tids;

  if (options_.walk_mode == WalkMode::kJoinJump) {
    // The thesis's CheckOutgoingTransitions: entries start at the join
    // max(gcut, e.VC) with the current (possibly stale) beliefs, and a
    // fully-believed-satisfied transition at an advanced join fires
    // immediately. Kept for comparison; see WalkMode::kJoinJump.
    for (const Candidate& cand : candidates) {
      const int tid = cand.tid;
      if (!prop_->locally_satisfied(tid, index_, e.letter)) continue;
      TransitionEntry entry;
      entry.transition_id = tid;
      entry.set_width(static_cast<std::size_t>(n_));
      bool advanced = false;
      for (int j = 0; j < n_; ++j) {
        const std::uint32_t joined =
            std::max(gv.cut[static_cast<std::size_t>(j)],
                     e.vc[static_cast<std::size_t>(j)]);
        if (joined != gv.cut[static_cast<std::size_t>(j)]) advanced = true;
        entry.cut(static_cast<std::size_t>(j)) = joined;
        entry.gstate(static_cast<std::size_t>(j)) =
            gv.gstate[static_cast<std::size_t>(j)];
        entry.depend(static_cast<std::size_t>(j)) = joined;
        entry.conj(static_cast<std::size_t>(j)) = ConjunctEval::kTrue;
      }
      const CompiledTransition& ct = prop_->transition(tid);
      bool needs_walk = false;
      for (int j = 0; j < n_; ++j) {
        if (j == index_) continue;
        if (!ct.local[static_cast<std::size_t>(j)].is_true() &&
            !prop_->locally_satisfied(
                tid, j, entry.gstate(static_cast<std::size_t>(j)))) {
          entry.conj(static_cast<std::size_t>(j)) = ConjunctEval::kUnset;
          needs_walk = true;
        }
      }
      if (!needs_walk) {
        if (!advanced) continue;  // the deterministic step's own transition
        // Believed-enabled at the advanced join: resolved already, but
        // routed through the token machinery so probe deduplication keeps
        // repeated beliefs from spawning unboundedly.
        entry.eval = EntryEval::kTrue;
      } else {
        for (int j = 0; j < n_; ++j) {
          if (entry.conj(static_cast<std::size_t>(j)) ==
              ConjunctEval::kUnset) {
            entry.next_target_process = j;
            entry.next_target_event =
                entry.cut(static_cast<std::size_t>(j)) + 1;
            break;
          }
        }
      }
      tids.push_back(tid);
      token.entries.push_back(std::move(entry));
    }
    if (token.entries.empty()) {
      recycle_token(std::move(token));
      return;
    }
  } else {
  for (const Candidate& cand : candidates) {
    const int tid = cand.tid;
    const bool pre = cand.pre_cut && e.sn > 0;
    // Skip when this process forbids the transition at every admissible
    // local position (Alg. 3 line 7).
    const bool sat_now = prop_->locally_satisfied(tid, index_, e.letter);
    const bool sat_pre = prop_->locally_satisfied(tid, index_, pre_letter);
    if (pre ? (!sat_now && !sat_pre) : !sat_now) continue;

    TransitionEntry entry;
    entry.transition_id = tid;
    entry.set_width(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      entry.cut(static_cast<std::size_t>(j)) =
          gv.cut[static_cast<std::size_t>(j)];
      entry.gstate(static_cast<std::size_t>(j)) =
          gv.gstate[static_cast<std::size_t>(j)];
    }
    if (pre) {
      entry.cut(static_cast<std::size_t>(index_)) = e.sn - 1;
      entry.gstate(static_cast<std::size_t>(index_)) = pre_letter;
      // The rolled-back frontier event still carries dependencies: without
      // its clock in `depend`, a cut through it can pass the consistency
      // check while missing remote events it happened-after -- the walk
      // then certifies stay-points and enables transitions at cuts that lie
      // on no lattice path (fuzz-found unsound verdicts).
      entry.merge_depend(event_at(e.sn - 1).vc);
    } else {
      entry.merge_depend(e.vc);
    }
    entry.raise_depend_to_cut();
    const CompiledTransition& ct = prop_->transition(tid);
    bool needs_walk = false;
    for (int j = 0; j < n_; ++j) {
      entry.conj(static_cast<std::size_t>(j)) = ConjunctEval::kTrue;
      if (entry.cut(static_cast<std::size_t>(j)) <
          entry.depend(static_cast<std::size_t>(j))) {
        needs_walk = true;  // lagging component: must be walked forward
      }
      const bool participates =
          !ct.local[static_cast<std::size_t>(j)].is_true();
      if (participates &&
          !prop_->locally_satisfied(
              tid, j, entry.gstate(static_cast<std::size_t>(j)))) {
        entry.conj(static_cast<std::size_t>(j)) = ConjunctEval::kUnset;
        needs_walk = true;
      }
    }
    if (!needs_walk) {
      // The guard holds at the entry's own cut -- but the transition fires
      // at a *successor* cut (the source state holds after this one). The
      // local successor is covered by the view's own deterministic step;
      // remote successors need one verification step, or the pivot is lost
      // whenever the next local event is inconsistent (design note: the
      // thesis's "enabled transition" handling misses this case). Walk one
      // event on a remote participant (any remote process if the guard is
      // local-only) and let the usual completion rules decide there.
      int j = -1;
      for (int k : ct.participants) {
        if (k != index_) {
          j = k;
          break;
        }
      }
      if (j < 0) j = index_ == 0 ? (n_ > 1 ? 1 : -1) : 0;
      if (j < 0) continue;  // single process: local steps cover everything
      entry.conj(static_cast<std::size_t>(j)) = ConjunctEval::kUnset;
      entry.next_target_process = j;
      entry.next_target_event = entry.cut(static_cast<std::size_t>(j)) + 1;
    } else {
      // Initial target: first lagging component, else first open conjunct
      // (Alg. 3 lines 12-13).
      for (int j = 0; j < n_; ++j) {
        const bool lagging = entry.cut(static_cast<std::size_t>(j)) <
                             entry.depend(static_cast<std::size_t>(j));
        if (lagging || entry.conj(static_cast<std::size_t>(j)) ==
                           ConjunctEval::kUnset) {
          entry.next_target_process = j;
          entry.next_target_event =
              entry.cut(static_cast<std::size_t>(j)) + 1;
          break;
        }
      }
    }
    tids.push_back(tid);
    token.entries.push_back(std::move(entry));
  }

  if (token.entries.empty()) {
    recycle_token(std::move(token));
    return;
  }
  }  // walk-mode dispatch

  // Optimization 4.3.2: skip duplicate probes -- the same (state,
  // transitions, beliefs) signature was already probed, either by an
  // outstanding token or by this view's previous probe ("the new event is
  // considered to be an element in the slice being constructed"). Pivot
  // cuts involving *new remote* events are caught by the remote monitors'
  // own probes (Theorem 4's progress-path argument).
  const std::uint64_t sig = probe_signature(gv, tids);
  if (options_.dedupe_probes) {
    if (gv.probe_sig == sig || outstanding_sigs_.count(sig)) {
      recycle_token(std::move(token));
      return;
    }
  }

  // A consistent probe forks a copy below; surface a cap breach before any
  // state mutates: the pooled token goes back, the view never starts
  // waiting, no signature is registered, and nothing is counted as created.
  if (consistent && options_.max_views &&
      views_.size() >= options_.max_views) {
    ++stats_.views_overflowed;
    recycle_token(std::move(token));
    throw MonitorOverflow("MonitorProcess: view cap exceeded (fork)");
  }

  token.token_id =
      (static_cast<std::uint64_t>(index_) << 32) | next_token_serial_++;
  token.parent = index_;
  token.parent_sn = e.sn;
  token.parent_vc = e.vc;
  ++stats_.tokens_created;

  if (options_.trace) {
    options_.trace("M" + std::to_string(index_) + " probe " +
                   token.to_string() + " from " + gv.to_string());
  }
  gv.waiting = true;
  gv.token_id = token.token_id;
  gv.probe_sig = sig;
  outstanding_sigs_.insert(sig);
  gv.forked_copy = consistent;
  if (consistent) {
    // Fork a copy that keeps tracing the path while the original waits for
    // the token (Alg. 2 lines 33-36).
    GlobalView copy = acquire_view();
    copy.cut = gv.cut;
    copy.gstate = gv.gstate;
    copy.q = gv.q;
    copy.next_sn = gv.next_sn;
    copy.id = next_view_id_++;
    views_.push_back(std::move(copy));
    ++stats_.global_views_created;
    drain(views_.back(), now);  // deque: pushing does not invalidate `gv`
  }
  // Dispatch: walks local targets over history (pre-cut entries re-consume
  // the triggering event here), routes remote targets, parks only on truly
  // future local events.
  process_token(std::move(token), now);
}

// ---------------------------------------------------------------------------
// Token path (Alg. 3-5)
// ---------------------------------------------------------------------------

void MonitorProcess::on_token(Token token, double now) {
  try {
    DepthGuard guard(dispatch_depth_);
    if (token.parent == index_) {
      handle_returned_token(std::move(token), now);
    } else {
      process_token(std::move(token), now);
    }
    merge_similar_views();
    sweep_dead_views();
    check_finished(now);
  } catch (const MonitorOverflow&) {
    flush_staged();  // no-op inside a frame; the frame's wrapper flushes
    throw;
  }
  // No-op while delivered as part of a frame (on_frame holds the depth):
  // the whole frame's responses flush together.
  flush_staged();
}

void MonitorProcess::on_frame(std::unique_ptr<PayloadFrame> frame,
                              double now) {
  try {
    // Hold the dispatch depth across all units so every per-unit flush
    // no-ops: responses provoked by any unit batch into the frames this
    // flush_staged() below emits.
    DepthGuard guard(dispatch_depth_);
    for (std::unique_ptr<NetPayload>& unit : frame->units) {
      if (!unit) continue;
      if (unit->tag == TokenMessage::kTag) {
        std::unique_ptr<TokenMessage> shell(
            static_cast<TokenMessage*>(unit.release()));
        Token token = std::move(shell->token);
        recycle_token_payload(std::move(shell));
        on_token(std::move(token), now);
      } else if (unit->tag == TerminationMessage::kTag) {
        const auto& t = static_cast<const TerminationMessage&>(*unit);
        on_peer_termination(t.process, t.last_sn, now);
      } else if (unit->tag == HistoryFloorMessage::kTag) {
        const auto& f = static_cast<const HistoryFloorMessage&>(*unit);
        on_history_floor(f.process, f.floor, f.epoch, now);
      }
      // Other tags never appear inside a monitor-built frame; tolerate and
      // skip them (a hostile decoded frame cannot make this path throw).
    }
    frame->units.clear();
  } catch (const MonitorOverflow&) {
    flush_staged();  // the guard unwound with the unit loop
    throw;
  }
  flush_staged();
  recycle_frame(std::move(frame));
}

void MonitorProcess::process_token(Token token, double now) {
  while (true) {
    if (token.next_target_process != index_) {
      // Targeted elsewhere: route it. A false return means the router chose
      // to keep it here after all (some entry targets this process); the
      // loop continues with the updated local target.
      if (route_token(token, now)) return;
      continue;
    }
    const std::uint32_t sn = token.next_target_event;
    if (sn < history_base_) {
      // Trimmed prefix. The floor gossip keeps live walks above the GC
      // base, so only a duplicate-delivered token can still target it: its
      // first copy already walked these events and spawned their pivots.
      // Fail the re-walk's entries instead of replaying history that is
      // gone.
      for (TransitionEntry& entry : token.entries) {
        if (entry.eval == EntryEval::kUnset &&
            entry.next_target_process == index_ &&
            entry.next_target_event < history_base_) {
          entry.eval = EntryEval::kFalse;
        }
      }
      if (route_token(token, now)) return;
      continue;  // stays here, now targeting a retained event
    }
    if (sn >= history_end()) {
      if (!local_terminated_) {
        w_tokens_.push_back(std::move(token));
        stats_.peak_waiting_tokens = std::max<std::uint64_t>(
            stats_.peak_waiting_tokens, w_tokens_.size());
        return;
      }
      // The requested event will never occur: the awaited conjunct can
      // never become true on this walk (Theorem 1).
      for (TransitionEntry& entry : token.entries) {
        if (entry.eval == EntryEval::kUnset &&
            entry.next_target_process == index_ &&
            entry.next_target_event >= history_end()) {
          entry.eval = EntryEval::kFalse;
        }
      }
      if (!route_token(token, now)) {
        throw std::logic_error(
            "MonitorProcess: token stuck after local termination");
      }
      return;
    }
    walk_token(token);
    // One routing decision per visit. The token stays only when the walk
    // reached the window edge (the loop then parks it) or its target was
    // stale (the route refreshed it and the loop walks again).
    if (route_token(token, now)) return;
  }
}

namespace {

/// A live entry of the visiting token that targets this monitor, with the
/// facts the uneventful-event test reads cached: they depend only on the
/// entry's state, which the skip scan never mutates.
struct HereEntry {
  TransitionEntry* entry = nullptr;
  std::uint32_t target = 0;  ///< entry->next_target_event
  /// The last skipped event whose cut was consistent (valid iff certify).
  std::uint32_t stay = 0;
  bool certify = false;
  /// Some event could be uneventful at all: the target is not the wrapped
  /// event 0, the source state has a self-loop, and no lower process holds
  /// an open conjunct (which would take the entry there on any step).
  bool skippable = false;
  /// `sat` and `leaves` hold. They are computed on first use: a walk often
  /// stops at its first event on the cheaper checks alone.
  bool known = false;
  /// The local conjunct holds at the frontier letter (vacuously for a
  /// non-participant).
  bool sat = false;
  /// At a consistent cut, the believed letter leaves the source state.
  bool leaves = false;
  /// Scratch: the cut through the event under test is consistent.
  bool consistent_now = false;
};

}  // namespace

void MonitorProcess::walk_token(Token& token) {
  const std::size_t i = static_cast<std::size_t>(index_);
  // Inline room for 32: about 2% of visits on the D/F n=5 goldens bring
  // more than 16 here-entries, and fewer than 0.1% more than 32.
  SmallVec<HereEntry, 32> here;
  std::uint32_t lo = UINT32_MAX;
  for (TransitionEntry& entry : token.entries) {
    if (entry.eval != EntryEval::kUnset ||
        entry.next_target_process != index_) {
      continue;
    }
    here.push_back(HereEntry{&entry});
    lo = std::min(lo, entry.next_target_event);
  }
  // A stale token target (a returning token whose lowest entry was pruned)
  // steps nothing; the route refreshes it.
  if (here.empty() || lo != token.next_target_event) return;

  auto prepare = [&](HereEntry& h) {
    const TransitionEntry& entry = *h.entry;
    const CompiledTransition& ct = prop_->transition(entry.transition_id);
    h.target = entry.next_target_event;
    h.certify = false;
    h.known = false;
    h.skippable = h.target != 0 && ct.from_has_self_loop;
    for (std::size_t k = 0; k < i && h.skippable; ++k) {
      if (entry.conj(k) == ConjunctEval::kUnset) h.skippable = false;
    }
  };
  // Would stepping `h` over `ev` leave it open, targeting this monitor's
  // next event? Evaluated against the entry as it stood before the skip:
  // clocks grow along a process's events, so merging ev.vc alone equals
  // merging every skipped event's clock (DESIGN.md §6.2).
  auto uneventful = [&](HereEntry& h, const Event& ev) {
    if (!h.skippable) return false;
    const TransitionEntry& entry = *h.entry;
    if (ev.letter != entry.gstate(i)) return false;
    bool consistent = true;
    for (std::size_t k = 0; k < entry.width(); ++k) {
      const std::uint32_t dep = std::max(entry.depend(k), ev.vc[k]);
      if (dep <= (k == i ? ev.sn : entry.cut(k))) continue;
      if (k < i) return false;  // a lower process now lags: the entry leaves
      consistent = false;
    }
    if (!h.known) {
      const CompiledTransition& ct = prop_->transition(entry.transition_id);
      h.sat = ct.local[i].is_true() ||
              prop_->locally_satisfied(entry.transition_id, index_,
                                       entry.gstate(i));
      const MonitorTransition* t =
          prop_->match(ct.from, entry.combined_gstate());
      h.leaves = t && !t->self_loop();
      h.known = true;
    }
    // A holding conjunct completes the entry unless the frontier itself
    // still lags behind its own dependencies.
    if (h.sat && std::max(entry.depend(i), ev.vc[i]) <= ev.sn) return false;
    if (consistent && h.leaves) return false;
    h.consistent_now = consistent;
    return true;
  };
  // Bulk advance: every entry at or behind `from` passes the events that
  // are uneventful for all of them at once. Returns the first event that
  // must really be stepped (or the window edge).
  const std::uint32_t end = history_end();
  auto skip = [&](std::uint32_t from) {
    std::uint32_t q = from;
    for (; q < end; ++q) {
      const Event& ev = event_at(q);
      bool pass = true;
      for (HereEntry& h : here) {
        if (h.target <= q && !uneventful(h, ev)) {
          pass = false;
          break;
        }
      }
      if (!pass) break;
      // Only now that every entry passed q may a consistent cut through q
      // be certified: the stop event itself never is.
      for (HereEntry& h : here) {
        if (h.target <= q && h.consistent_now) {
          h.stay = q;
          h.certify = true;
        }
      }
    }
    if (q == from) return q;
    const Event& last = event_at(q - 1);
    for (HereEntry& h : here) {
      if (h.target >= q) continue;
      TransitionEntry& entry = *h.entry;
      if (h.certify) {
        entry.cut(i) = h.stay;
        entry.certify_loop();
      }
      entry.cut(i) = q - 1;
      entry.merge_depend(last.vc);
      entry.raise_depend_to_cut();
      // As the last skipped step left it: a participant's conjunct
      // re-opens for the next event, a non-participant's stays true.
      entry.conj(i) =
          prop_->transition(entry.transition_id).local[i].is_true()
              ? ConjunctEval::kTrue
              : ConjunctEval::kUnset;
      entry.next_target_event = q;
      h.target = q;
      h.certify = false;
    }
    return q;
  };

  for (HereEntry& h : here) prepare(h);
  while (true) {
    lo = skip(lo);
    if (lo >= end) return;  // window edge: the route parks the token
    const Event& e = event_at(lo);
    bool enabled = false;
    std::size_t kept = 0;
    std::uint32_t next_lo = UINT32_MAX;
    for (HereEntry& h : here) {
      if (h.target == lo) {
        step_entry(*h.entry, e);
        if (h.entry->eval == EntryEval::kTrue) enabled = true;
        // Resolved, or retargeted to another process: out of the walk.
        if (h.entry->eval != EntryEval::kUnset ||
            h.entry->next_target_process != index_) {
          continue;
        }
        prepare(h);
      }
      here[kept++] = h;
      next_lo = std::min(next_lo, h.target);
    }
    here.resize(kept);
    if (enabled || here.empty()) return;
    lo = next_lo;
  }
}

void MonitorProcess::step_entry(TransitionEntry& entry, const Event& e) {
  const std::size_t i = static_cast<std::size_t>(index_);
  entry.cut(i) = e.sn;
  entry.gstate(i) = e.letter;
  entry.merge_depend(e.vc);
  entry.raise_depend_to_cut();
  const CompiledTransition& ct = prop_->transition(entry.transition_id);
  if (!ct.local[i].is_true()) {
    entry.conj(i) =
        prop_->locally_satisfied(entry.transition_id, index_, e.letter)
            ? ConjunctEval::kTrue
            : ConjunctEval::kUnset;
  } else {
    // Non-participant visit (successor verification or consistency
    // repair): nothing to evaluate here.
    entry.conj(i) = ConjunctEval::kTrue;
  }

  // Resolve or retarget the entry (Alg. 4 lines 13-25, with the
  // generalized order check replacing Alg. 5's sibling-only flag rule).
  // Find what still keeps the entry open: a lagging cut component (the
  // frontier depends on events not yet included) or an open conjunct.
  int next = -1;
  for (int k = 0; k < n_; ++k) {
    if (entry.cut(static_cast<std::size_t>(k)) <
            entry.depend(static_cast<std::size_t>(k)) ||
        entry.conj(static_cast<std::size_t>(k)) == ConjunctEval::kUnset) {
      next = k;
      break;
    }
  }
  if (next < 0) {
    // All conjuncts verified at a consistent cut: enabled (the pivot
    // global state is found).
    entry.eval = EntryEval::kTrue;
    return;
  }

  // The walk must advance past the current cut. A source state without
  // any self-loop (X-shaped) leaves on *every* letter: the transition can
  // only fire exactly one event past the creation cut, so an entry that
  // did not complete on this event is infeasible.
  if (!ct.from_has_self_loop) {
    entry.eval = EntryEval::kFalse;
    return;
  }
  // Otherwise, advancing is only a real path if the letter here keeps the
  // source state on a self-loop; the check applies at consistent cuts
  // (design note: this generalizes Alg. 5's flag rule, which only catches
  // competing sibling entries). An inconsistent cut is not a global state
  // of any path, so it is repaired, not judged.
  if (entry.cut_covers_depend()) {
    const MonitorTransition* t =
        prop_->match(ct.from, entry.combined_gstate());
    if (t && !t->self_loop()) {
      entry.eval = EntryEval::kFalse;
      return;
    }
    // Certified stay-point: a consistent cut where the path provably can
    // remain at the source state (used to resurrect launchpad views).
    entry.certify_loop();
  }
  // A conjunct re-opens when its process's slice will move.
  if (!ct.local[static_cast<std::size_t>(next)].is_true()) {
    entry.conj(static_cast<std::size_t>(next)) = ConjunctEval::kUnset;
  }
  entry.next_target_process = next;
  entry.next_target_event = entry.cut(static_cast<std::size_t>(next)) + 1;
}

bool MonitorProcess::route_token(Token& token, double now) {
  // SendToNextProcess (4.2.0.6): (1) any enabled entry -> parent; (2) a
  // live entry targets this process -> stay; (3) a live entry targets a
  // third process -> go there; (4) otherwise -> parent.
  bool any_true = false;
  bool any_live = false;
  for (const TransitionEntry& e : token.entries) {
    if (e.eval == EntryEval::kTrue) any_true = true;
    if (e.eval == EntryEval::kUnset) any_live = true;
  }

  int dest = token.parent;
  if (!any_true && any_live) {
    // Prefer staying, then a third process, then the parent. Among third
    // processes, prefer the entry whose target automaton state is closest
    // to a definite verdict (static-analysis routing, 7.2.2) -- detection
    // latency matters most for transitions about to decide the run.
    int third = -1;
    int third_rank = INT_MAX;
    int parent_target = -1;
    bool stay = false;
    for (const TransitionEntry& e : token.entries) {
      if (e.eval != EntryEval::kUnset) continue;
      if (e.next_target_process == index_) {
        stay = true;
      } else if (e.next_target_process == token.parent) {
        parent_target = token.parent;
      } else {
        int rank = 0;
        if (options_.prioritize_near_verdict) {
          const int d = prop_->distance_to_verdict(
              prop_->transition(e.transition_id).to);
          rank = d == AutomatonAnalysis::kUnreachable ? INT_MAX - 1 : d;
        }
        if (third < 0 || rank < third_rank) {
          third = e.next_target_process;
          third_rank = rank;
        }
      }
    }
    if (stay) {
      dest = index_;
    } else if (third >= 0) {
      dest = third;
    } else if (parent_target >= 0) {
      dest = parent_target;
    }
  }

  // Target event at the destination: the earliest live request there.
  std::uint32_t target_event = 0;
  bool have_target = false;
  for (const TransitionEntry& e : token.entries) {
    if (e.eval != EntryEval::kUnset) continue;
    if (e.next_target_process != dest) continue;
    if (!have_target || e.next_target_event < target_event) {
      target_event = e.next_target_event;
      have_target = true;
    }
  }
  token.next_target_process = dest;
  token.next_target_event = have_target ? target_event : 0;

  if (dest == index_ && !(any_true || !any_live)) {
    return false;  // stays at this monitor (rule 2)
  }
  ++token.hops;
  ++stats_.token_hops;
  if (dest == index_) {
    // Returning home without a hop (parent == current process).
    handle_returned_token(std::move(token), now);
    return true;
  }
  ++stats_.token_messages_sent;
  // Swap the token into a recycled message shell: the shell's previous
  // token husk lands in `token` and goes back to the pool, so its spilled
  // capacity (entry vector, wide clocks) keeps circulating. The shell is
  // staged, not sent: it leaves inside a batched frame when the current
  // dispatch unwinds.
  std::unique_ptr<TokenMessage> payload = acquire_token_payload();
  std::swap(payload->token, token);
  stage_send(dest, std::move(payload));
  recycle_token(std::move(token));
  return true;
}

void MonitorProcess::handle_returned_token(Token token, double now) {
  GlobalView* gv = find_view_by_token(token.token_id);
  if (!gv || gv->dead) {
    // Orphan return: the view vanished, or an earlier copy of this token
    // (duplicate delivery under fault injection) already resolved it. The
    // enabled entries are still verified pivots of real lattice paths, so
    // spawn them anyway -- spawned_memo_ dedupes against the other copy --
    // and re-delivery stays idempotent instead of silently dropping paths.
    bool spawned = false;
    for (const TransitionEntry& entry : token.entries) {
      if (entry.eval != EntryEval::kTrue) continue;
      spawn_view(entry, now);
      spawned = true;
    }
    recycle_token(std::move(token));
    if (spawned) check_finished(now);
    return;
  }

  bool spawned_to = false;
  // Local, not member scratch: spawn_view can re-enter this function
  // through drain -> probe_outgoing -> process_token -> route_token.
  SmallVec<char, 64> spawned_states(
      static_cast<std::size_t>(prop_->automaton().num_states()), 0);
  for (TransitionEntry& entry : token.entries) {
    if (entry.eval != EntryEval::kTrue) continue;
    spawn_view(entry, now);
    spawned_to = true;
    spawned_states[static_cast<std::size_t>(
        prop_->transition(entry.transition_id).to)] = 1;
  }
  if (spawned_to && options_.prune_same_destination) {
    // Optimization 4.3.3: transitions split from one disjunctive predicate
    // lead to the same state; satisfying one is enough.
    for (TransitionEntry& entry : token.entries) {
      if (entry.eval == EntryEval::kUnset &&
          spawned_states[static_cast<std::size_t>(
              prop_->transition(entry.transition_id).to)]) {
        entry.eval = EntryEval::kFalse;
      }
    }
  }
  // Remember the most advanced certified stay-point across all entries
  // (resolved ones included) before dropping them: resurrecting far along
  // the walk avoids re-probing the ground the token already covered.
  const TransitionEntry* cert = nullptr;
  for (const TransitionEntry& entry : token.entries) {
    if (!entry.loop_certified) continue;
    if (!cert || entry.loop_cut_total() > cert->loop_cut_total()) {
      cert = &entry;
    }
  }
  SmallVec<std::uint32_t, 8> cert_cut;
  SmallVec<AtomSet, 8> cert_gstate;
  if (cert) {
    cert_cut.resize(cert->width());
    cert_gstate.resize(cert->width());
    for (std::size_t j = 0; j < cert->width(); ++j) {
      cert_cut[j] = cert->loop_cut(j);
      cert_gstate[j] = cert->loop_gstate(j);
    }
  }

  // Drop resolved entries.
  std::erase_if(token.entries, [](const TransitionEntry& e) {
    return e.eval != EntryEval::kUnset;
  });

  if (token.entries.empty()) {
    recycle_token(std::move(token));
    gv->waiting = false;
    outstanding_sigs_.erase(gv->probe_sig);
    if (gv->forked_copy) {
      // A copy has been tracing the path from the launch position since the
      // probe went out: the launchpad is redundant.
      gv->dead = true;
    } else if (cert &&
               cert_cut[static_cast<std::size_t>(index_)] >= history_base_) {
      // Resurrection (design note): the launchpad had no copy continuing
      // the path (its triggering event was inconsistent), but the token
      // certified a consistent cut where the path can stay at the source
      // state. Resume the view there instead of killing it -- this is what
      // preserves the '?' path of the paper's running example (path beta).
      // The waiting view's GC keep-bound retains the certified cut's local
      // predecessor, so a first-delivery resurrection never rewinds below
      // the base; only a duplicate token can fail the check above, and it
      // falls through to the quarantine branch instead.
      gv->cut = std::move(cert_cut);
      gv->gstate = std::move(cert_gstate);
      gv->probe_sig = 0;
      // Rewind the cursor to the certified cut: its local component can lie
      // before events the launchpad already consumed, and the shared history
      // replays them without any copying.
      gv->next_sn = gv->cut[static_cast<std::size_t>(index_)] + 1;
      drain(*gv, now);
    } else {
      // No fork continued this path and the token certified no stay-point
      // (its entries resolved before crossing any consistent open cut).
      // Killing the view here loses real '?' paths (fuzz-found on the
      // thesis automata, whose per-conjunct self-loops are never probed) --
      // but its position is not certified to lie on any path either, so
      // letting it keep probing spawns definite-state views at unreachable
      // cuts (unsound on X-shaped automata). Quarantine it: it survives as
      // a passive '?' marker, draining but never probing again.
      gv->quarantined = true;
      drain(*gv, now);
    }
    check_finished(now);
    return;
  }
  // Live entries remain (inconsistency repairs that involve the parent, or
  // further remote visits): re-dispatch.
  process_token(std::move(token), now);
}

void MonitorProcess::spawn_view(const TransitionEntry& entry, double now) {
  // A duplicate-delivered token can carry a pivot whose local component
  // precedes the GC base (the first copy spawned it before the trim); its
  // replay would read below the retained window, so skip it -- the first
  // copy's view already traces this path.
  if (entry.cut(static_cast<std::size_t>(index_)) < history_base_) return;
  // Dedupe pivots: distinct tokens can detect the same (state, cut) pivot;
  // one view per pivot suffices (its continuation covers the rest).
  {
    std::uint64_t h = 1469598103934665603ull;
    h ^= static_cast<std::uint64_t>(prop_->transition(entry.transition_id).to);
    h *= 1099511628211ull;
    for (std::size_t j = 0; j < entry.width(); ++j) {
      h ^= entry.cut(j);
      h *= 1099511628211ull;
    }
    if (spawned_memo_.count(h)) return;
    // Cap check before the memo insert and the pool acquire: a breach must
    // not leave a pivot marked spawned without its view, abandon a pooled
    // shell, or count a view that was never pushed.
    if (options_.max_views && views_.size() >= options_.max_views) {
      ++stats_.views_overflowed;
      throw MonitorOverflow("MonitorProcess: view cap exceeded (spawn)");
    }
    spawned_memo_.insert(h);
  }
  if (options_.trace) {
    options_.trace("M" + std::to_string(index_) + " spawn via " +
                   entry.to_string());
  }
  GlobalView v = acquire_view();
  v.id = next_view_id_++;
  v.cut.resize(entry.width());
  v.gstate.resize(entry.width());
  for (std::size_t j = 0; j < entry.width(); ++j) {
    v.cut[j] = entry.cut(j);
    v.gstate[j] = entry.gstate(j);
  }
  v.q = prop_->transition(entry.transition_id).to;
  // The new path continues from the detected pivot cut: every local event
  // past the cut must still be consumed, including ones the parent already
  // processed -- the cursor starts at the pivot's local component, not at
  // the parent's position, and drain() replays the shared history from
  // there.
  v.next_sn = entry.cut(static_cast<std::size_t>(index_)) + 1;
  declare(v.q, now);
  views_.push_back(std::move(v));
  ++stats_.global_views_created;
  drain(views_.back(), now);
}

GlobalView* MonitorProcess::find_view_by_token(std::uint64_t token_id) {
  for (GlobalView& gv : views_) {
    if (gv.waiting && gv.token_id == token_id) return &gv;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Termination (4.2.0.10)
// ---------------------------------------------------------------------------

void MonitorProcess::on_local_termination(double now) {
  try {
    DepthGuard guard(dispatch_depth_);
    local_terminated_ = true;
    peer_last_sn_[static_cast<std::size_t>(index_)] = history_end() - 1;
    // Announce to all peers. Staged like every send: a token flushed below
    // toward the same peer shares that peer's frame.
    for (int j = 0; j < n_; ++j) {
      if (j == index_) continue;
      auto payload = std::make_unique<TerminationMessage>();
      payload->process = index_;
      payload->last_sn = history_end() - 1;
      ++stats_.termination_messages;
      stage_send(j, std::move(payload));
    }
    flush_waiting_tokens(now);
    merge_similar_views();
    sweep_dead_views();
    check_finished(now);
  } catch (const MonitorOverflow&) {
    flush_staged();
    throw;
  }
  flush_staged();
}

void MonitorProcess::on_peer_termination(int peer, std::uint32_t last_sn,
                                         double now) {
  {
    DepthGuard guard(dispatch_depth_);
    peer_last_sn_[static_cast<std::size_t>(peer)] = last_sn;
    check_finished(now);
  }
  flush_staged();
}

// ---------------------------------------------------------------------------
// Streaming history GC (DESIGN.md §12)
// ---------------------------------------------------------------------------

void MonitorProcess::on_history_floor(int peer, std::uint32_t floor,
                                      std::uint32_t epoch, double now) {
  (void)now;
  if (peer < 0 || peer >= n_ || peer == index_) return;  // hostile decode
  std::uint32_t& slot = peer_floor_[static_cast<std::size_t>(peer)];
  std::uint32_t& slot_epoch = peer_floor_epoch_[static_cast<std::size_t>(peer)];
  if (epoch > slot_epoch) {
    // Floor-resync (DESIGN.md §13): the peer restarted from a checkpoint and
    // re-advertises its rewound promise. Replace, never max: the clamp is
    // the entire point, and any higher value we stored belongs to the dead
    // pre-crash epoch. Lowering the fold only blocks future trims -- history
    // already trimmed above the clamp is covered by the below-base guard,
    // which fails duplicate re-walks into the gone prefix.
    slot_epoch = epoch;
    slot = floor;
    return;
  }
  if (epoch < slot_epoch) return;  // stale pre-crash advertisement, reordered
  // Same epoch: floors only rise. A duplicated or reordered gossip message
  // can carry a stale (lower) value, and taking the max absorbs it.
  slot = std::max(slot, floor);
}

std::uint32_t MonitorProcess::trim_bound() const {
  std::uint32_t bound = history_end();
  auto lower = [&bound](std::uint32_t x) { bound = std::min(bound, x); };
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    // A non-waiting view re-reads from next_sn on and probes with the
    // predecessor letter at next_sn - 1. A waiting view can additionally be
    // resurrected at its token's certified loop cut, whose local component
    // of a pre-cut entry lies one event behind the frozen cursor's
    // predecessor -- one more event of slack.
    const std::uint32_t slack = gv.waiting ? 2 : 1;
    lower(gv.next_sn > slack ? gv.next_sn - slack : 0);
  }
  for (const Token& t : w_tokens_) {
    // A parked token's entries can later retarget to, or spawn a view
    // anchored at, their current local cut component (predecessor letter
    // included); every entry counts, resolved ones too -- an enabled entry
    // still spawns on return.
    for (const TransitionEntry& e : t.entries) {
      lower(e.cut(static_cast<std::size_t>(index_)));
    }
  }
  for (int j = 0; j < n_; ++j) {
    // Remote walks are bounded by the gossiped floors. A peer that has not
    // gossiped yet sits at floor 0 and blocks all trimming -- safe by
    // construction.
    if (j == index_) continue;
    lower(peer_floor_[static_cast<std::size_t>(j)]);
  }
  return bound;
}

void MonitorProcess::advertise_floors() {
  // Gossip our floors: for each peer j, the smallest j-component across our
  // live views -- no walk or spawn we can still launch ever references j's
  // events below it (entry cuts start at a live view's cut and only grow,
  // and a token in flight keeps its launchpad frozen in views_). A monitor
  // with no live views constrains nothing new and keeps its last
  // advertisement by staying silent.
  SmallVec<std::uint32_t, 8> floors;
  floors.assign(static_cast<std::size_t>(n_), 0xFFFFFFFFu);
  bool any_live = false;
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    any_live = true;
    for (int j = 0; j < n_; ++j) {
      floors[static_cast<std::size_t>(j)] =
          std::min(floors[static_cast<std::size_t>(j)],
                   gv.cut[static_cast<std::size_t>(j)]);
    }
  }
  if (!any_live) return;
  for (int j = 0; j < n_; ++j) {
    if (j == index_) continue;
    auto payload = std::make_unique<HistoryFloorMessage>();
    payload->process = index_;
    payload->floor = floors[static_cast<std::size_t>(j)];
    payload->epoch = floor_epoch_;
    ++stats_.floor_messages;
    stage_send(j, std::move(payload));
  }
}

void MonitorProcess::resync_floors(double now) {
  if (!options_.streaming) return;
  ++stats_.resync_floors;
  {
    DepthGuard guard(dispatch_depth_);
    // The restored floor_epoch_ equals the pre-crash value (stride-1
    // checkpoints cover it), so the bump makes this restart's advertisements
    // strictly newer than anything the dead incarnation sent. Peers replace
    // their stored fold on the first message of the new epoch -- even when
    // the re-advertised floor is LOWER than the pre-crash promise -- and
    // discard reordered stragglers from the old one.
    ++floor_epoch_;
    advertise_floors();
  }
  flush_staged();
  (void)now;
}

void MonitorProcess::gc_sweep(double now) {
  (void)now;
  ++stats_.gc_sweeps;
  advertise_floors();
  const std::uint32_t bound = trim_bound();
  if (bound > history_base_) {
    const std::size_t k = static_cast<std::size_t>(bound - history_base_);
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(k));
    history_base_ = bound;
    stats_.history_trimmed += k;
  }
}

void MonitorProcess::flush_waiting_tokens(double now) {
  std::vector<Token> parked = std::move(w_tokens_);
  w_tokens_.clear();
  for (Token& t : parked) {
    // Every entry waiting for a local event beyond the last one is disabled.
    for (TransitionEntry& entry : t.entries) {
      if (entry.eval == EntryEval::kUnset &&
          entry.next_target_process == index_ &&
          entry.next_target_event >= history_end()) {
        entry.eval = EntryEval::kFalse;
      }
    }
    if (!route_token(t, now)) {
      throw std::logic_error("MonitorProcess: unflushable token " +
                             t.to_string() + " history=" +
                             std::to_string(history_end()));
    }
  }
}

void MonitorProcess::check_finished(double now) {
  if (finished_) return;
  if (!local_terminated_) return;
  for (int j = 0; j < n_; ++j) {
    if (peer_last_sn_[static_cast<std::size_t>(j)] == kRunning) return;
  }
  if (!w_tokens_.empty()) return;
  for (const GlobalView& gv : views_) {
    if (!gv.dead && gv.waiting) return;
  }
  finished_ = true;
  stats_.finish_time = now;
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

void MonitorProcess::merge_similar_views() {
  // Collect the settled (non-waiting, fully drained) live views once;
  // everything below works on this small set. Scratch containers are
  // members so their capacity persists across calls (merge is never
  // re-entered: it runs only at the tail of top-level dispatches).
  std::vector<GlobalView*>& settled = merge_settled_;
  settled.clear();
  for (GlobalView& gv : views_) {
    if (!gv.dead && !gv.waiting && gv.next_sn >= history_end()) {
      settled.push_back(&gv);
    }
  }
  // Merge views with equal (automaton state, cut): they trace the same
  // sub-lattice from here on (4.3.2). Only settled views merge; waiting
  // views own live tokens. Keys are a precomputed FNV-1a hash of (q, cut)
  // -- no per-view key vector is materialized. A 64-bit hash collision
  // between distinct keys would only *skip* a merge (verified below), never
  // merge distinct views.
  std::unordered_map<std::uint64_t, GlobalView*>& seen = merge_seen_;
  seen.clear();
  for (GlobalView* gv : settled) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t x) {
      h ^= x;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(gv->q));
    for (std::uint32_t x : gv->cut) mix(x + 1);
    auto [it, inserted] = seen.emplace(h, gv);
    if (!inserted && it->second->q == gv->q && it->second->cut == gv->cut) {
      // Keep the healthy copy: a quarantined survivor would silence the
      // pair's future probes.
      if (it->second->quarantined && !gv->quarantined) {
        it->second->dead = true;
        it->second = gv;
      } else {
        gv->dead = true;
      }
      ++stats_.global_views_merged;
    }
  }
  // Subsumption (the slice-merge of 4.3.2): a view is dropped when another
  // view at the same automaton state has a componentwise-larger cut and
  // agrees on every shared frontier letter -- the survivor continues the
  // same slice further along.
  if (options_.subsume_views) {
    for (GlobalView* pa : settled) {
      GlobalView& a = *pa;
      if (a.dead) continue;
      for (GlobalView* pb : settled) {
        GlobalView& b = *pb;
        if (&a == &b || b.dead) continue;
        if (a.q != b.q) continue;
        // A quarantined view never subsumes a healthy one (it cannot stand
        // in for the healthy view's future probes).
        if (b.quarantined && !a.quarantined) continue;
        bool dominated = true;   // a.cut <= b.cut, strictly somewhere
        bool strict = false;
        bool frontier_agrees = true;
        for (int j = 0; j < n_ && dominated; ++j) {
          const auto ja = a.cut[static_cast<std::size_t>(j)];
          const auto jb = b.cut[static_cast<std::size_t>(j)];
          if (ja > jb) dominated = false;
          if (ja < jb) strict = true;
          if (ja == jb &&
              a.gstate[static_cast<std::size_t>(j)] !=
                  b.gstate[static_cast<std::size_t>(j)]) {
            frontier_agrees = false;
          }
        }
        if (dominated && strict && frontier_agrees) {
          a.dead = true;
          ++stats_.global_views_merged;
          break;
        }
      }
    }
  }
  // Aggressive state-level merge (4.4.1's bound): one settled view per
  // automaton state, keeping the most advanced cut. Indexed by state id --
  // the automaton is small, so a flat array beats any map.
  if (options_.merge_by_state) {
    std::vector<GlobalView*>& best = merge_best_;
    best.assign(static_cast<std::size_t>(prop_->automaton().num_states()),
                nullptr);
    for (GlobalView* pgv : settled) {
      GlobalView& gv = *pgv;
      if (gv.dead) continue;
      GlobalView*& keep = best[static_cast<std::size_t>(gv.q)];
      if (!keep) {
        keep = &gv;
        continue;
      }
      // Healthy beats quarantined regardless of cut (the survivor carries
      // the state's future probes); within a class the larger cut wins.
      bool replace;
      if (keep->quarantined != gv.quarantined) {
        replace = keep->quarantined;
      } else {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        for (std::uint32_t x : gv.cut) a += x;
        for (std::uint32_t x : keep->cut) b += x;
        replace = a > b;
      }
      if (replace) {
        keep->dead = true;
        keep = &gv;
      } else {
        gv.dead = true;
      }
      ++stats_.global_views_merged;
    }
  }

  std::uint64_t live = 0;
  for (const GlobalView& gv : views_) {
    if (!gv.dead) ++live;
  }
  stats_.peak_global_views = std::max(stats_.peak_global_views, live);
}

void MonitorProcess::sweep_dead_views() {
  if (dispatch_depth_ > 0) return;  // references may still be on the stack
  // Harvest dead views into the free list first (their dead flag survives
  // the move -- scalars are copied, not reset), then erase the husks.
  for (GlobalView& gv : views_) {
    if (gv.dead && view_pool_.size() < kMaxPooledViews) {
      view_pool_.push_back(std::move(gv));
    }
  }
  std::erase_if(views_, [](const GlobalView& gv) { return gv.dead; });
}

void MonitorProcess::sample_pending() {
  // A view's backlog is the tail of the shared history past its cursor.
  std::uint64_t total = 0;
  const std::uint32_t end = history_end();
  for (const GlobalView& gv : views_) {
    if (gv.dead) continue;
    total += end - gv.next_sn;
  }
  stats_.pending_sum += total;
  ++stats_.pending_samples;
  stats_.max_pending = std::max(stats_.max_pending, total);
}

}  // namespace decmon

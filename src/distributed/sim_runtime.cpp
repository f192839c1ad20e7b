#include "decmon/distributed/sim_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace decmon {
namespace {

// Application and monitor messages both take N(kLatencyMu, kLatencySigma)
// trace seconds, truncated at kMinLatency; each class draws from its own
// seeded stream.
constexpr double kLatencyMu = 0.05;
constexpr double kLatencySigma = 0.02;
constexpr double kMinLatency = 0.001;

}  // namespace

SimRuntime::SimRuntime(SystemTrace trace, const AtomRegistry* registry,
                       SimConfig config)
    : registry_(registry),
      config_(config),
      app_latency_(kLatencyMu, kLatencySigma, derive_seed(config.seed, 1001),
                   kMinLatency),
      mon_latency_(kLatencyMu, kLatencySigma, derive_seed(config.seed, 1002),
                   kMinLatency) {
  const int n = trace.num_processes();
  procs_.reserve(static_cast<std::size_t>(n));
  history_.resize(static_cast<std::size_t>(n));
  remaining_receives_.resize(static_cast<std::size_t>(n));
  terminated_.assign(static_cast<std::size_t>(n), 0);
  app_last_delivery_.assign(static_cast<std::size_t>(n * n), 0.0);
  mon_last_delivery_.assign(static_cast<std::size_t>(n * n), 0.0);
  mon_pending_.resize(static_cast<std::size_t>(n * n));
  for (int p = 0; p < n; ++p) {
    remaining_receives_[static_cast<std::size_t>(p)] =
        trace.expected_receives(p);
    procs_.emplace_back(p, n, trace.procs[static_cast<std::size_t>(p)],
                        registry_);
  }
}

std::vector<LocalState> SimRuntime::initial_states() const {
  std::vector<LocalState> out;
  out.reserve(procs_.size());
  for (const ProgramProcess& p : procs_) out.push_back(p.state());
  return out;
}

void SimRuntime::schedule(double time, Task fn) {
  assert(time >= now_);
  queue_.push(Item{time, next_seq_++, std::move(fn)});
}

double SimRuntime::fifo_delivery_time(std::vector<double>& last, int channel,
                                      double candidate) {
  double& prev = last[static_cast<std::size_t>(channel)];
  const double at = std::max(candidate, prev + 1e-9);
  prev = at;
  return at;
}

void SimRuntime::run() {
  const int n = num_processes();
  // Record initial pseudo-events (monitors receive the initial global state
  // at construction, not through the event stream).
  for (int p = 0; p < n; ++p) {
    history_[static_cast<std::size_t>(p)].push_back(
        procs_[static_cast<std::size_t>(p)].initial_event());
  }
  for (int p = 0; p < n; ++p) {
    schedule_next_action(p);
    maybe_terminate(p);  // empty traces terminate immediately
  }
  while (!queue_.empty()) {
    // Items are move-only; top() is about to be popped, so moving out of it
    // is safe (pop only destroys or moves-from the extracted slot).
    Item item = std::move(const_cast<Item&>(queue_.top()));
    queue_.pop();
    assert(item.time >= now_);
    now_ = item.time;
    item.fn();
  }
}

void SimRuntime::schedule_next_action(int proc) {
  ProgramProcess& p = procs_[static_cast<std::size_t>(proc)];
  if (!p.has_next_action()) return;
  schedule(now_ + p.next_action_wait(), [this, proc] { execute_action(proc); });
}

void SimRuntime::execute_action(int proc) {
  ProgramProcess& p = procs_[static_cast<std::size_t>(proc)];
  ProgramProcess::ActionResult result = p.execute_next_action(now_);
  record_and_notify(result.event);
  if (result.is_comm) {
    // Broadcast: one copy per peer, independent latencies, FIFO channels.
    for (int to = 0; to < num_processes(); ++to) {
      if (to == proc) continue;
      AppMessage msg = result.message;  // per-peer copy (inline clock: memcpy)
      msg.to = to;
      const double at = fifo_delivery_time(
          app_last_delivery_, proc * num_processes() + to,
          now_ + app_latency_.sample());
      ++app_messages_;
      schedule(at, [this, m = std::move(msg)] { deliver_app(m); });
    }
  }
  schedule_next_action(proc);
  maybe_terminate(proc);
}

void SimRuntime::deliver_app(const AppMessage& msg) {
  ProgramProcess& p = procs_[static_cast<std::size_t>(msg.to)];
  const Event e = p.receive(msg, now_);
  --remaining_receives_[static_cast<std::size_t>(msg.to)];
  record_and_notify(e);
  maybe_terminate(msg.to);
}

void SimRuntime::record_and_notify(const Event& e) {
  ++program_events_;
  program_end_ = std::max(program_end_, now_);
  monitor_end_ = std::max(monitor_end_, now_);
  auto& hist = history_[static_cast<std::size_t>(e.process)];
  assert(e.sn == hist.size());
  hist.push_back(e);
  if (hooks_) hooks_->on_local_event(e.process, e, now_);
}

void SimRuntime::maybe_terminate(int proc) {
  if (terminated_[static_cast<std::size_t>(proc)]) return;
  const ProgramProcess& p = procs_[static_cast<std::size_t>(proc)];
  if (p.has_next_action()) return;
  if (remaining_receives_[static_cast<std::size_t>(proc)] > 0) return;
  terminated_[static_cast<std::size_t>(proc)] = 1;
  program_end_ = std::max(program_end_, now_);
  if (hooks_) hooks_->on_local_termination(proc, now_);
}

void SimRuntime::send(MonitorMessage msg) {
  send_perturbed(std::move(msg), DeliveryPerturbation{});
}

void SimRuntime::send_perturbed(MonitorMessage msg,
                                const DeliveryPerturbation& perturbation) {
  if (msg.to < 0 || msg.to >= num_processes()) {
    throw std::out_of_range("SimRuntime::send: bad destination");
  }
  const bool self = msg.from == msg.to;
  // Unperturbed cross-node frames ride the convoy engine: per-unit latency
  // draws with in-flight re-batching. Perturbed sends (fault injection) and
  // channel envelopes keep the whole-message path below -- a frame inside
  // an envelope is delayed/reordered/dropped as one unit, which is exactly
  // the PR 3/4 fault semantics.
  if (!self && msg.payload && msg.payload->tag == PayloadFrame::kTag &&
      perturbation.extra_delay == 0.0 && !perturbation.bypass_fifo) {
    send_frame(std::move(msg));
    return;
  }
  if (!self) ++monitor_messages_;  // same-node handoff is not network traffic
  double at = now_;
  if (!self) {
    at += mon_latency_.sample() + perturbation.extra_delay;
    // Perturbed (bypass_fifo) messages neither wait behind nor hold back
    // the channel: they are exactly the reordering/retransmission faults.
    if (!perturbation.bypass_fifo) {
      at = fifo_delivery_time(mon_last_delivery_,
                              msg.from * num_processes() + msg.to, at);
    }
  } else if (perturbation.extra_delay > 0.0) {
    // Delayed self-delivery: how the reliable channel schedules its
    // retransmit timers (no latency sample -- nothing crosses the network).
    at += perturbation.extra_delay;
  }
  // The message moves through the queue to the receiver: the payload is
  // never duplicated, and self-delivery (from == to) is the same zero-copy
  // handoff scheduled at the current time.
  schedule(at, [this, m = std::move(msg)]() mutable {
    monitor_end_ = std::max(monitor_end_, now_);
    if (hooks_) hooks_->on_monitor_message(std::move(m), now_);
  });
}

void SimRuntime::send_frame(MonitorMessage msg) {
  const int n = num_processes();
  const int ch = msg.from * n + msg.to;
  std::deque<PendingFrame>& pending =
      mon_pending_[static_cast<std::size_t>(ch)];
  double& prev = mon_last_delivery_[static_cast<std::size_t>(ch)];
  const bool transit = config_.coalesce == CoalesceMode::kTransit;

  std::unique_ptr<PayloadFrame> incoming(
      static_cast<PayloadFrame*>(msg.payload.release()));
  for (std::unique_ptr<NetPayload>& unit : incoming->units) {
    if (!unit) continue;
    // One latency draw per unit, in unit order: the single seeded stream
    // advances exactly as the unbatched simulation would, so everything
    // else in the schedule (app messages, other channels) is untouched.
    const double unclamped = now_ + mon_latency_.sample();
    const double at = std::max(unclamped, prev + 1e-9);
    // kExact joins the in-flight tail only when the FIFO clamp would have
    // delivered this unit epsilon-behind the previous one anyway; kTransit
    // joins whenever the tail has not been delivered yet.
    const bool join =
        !pending.empty() && (transit || unclamped <= prev + 1e-9);
    prev = at;
    if (join) {
      static_cast<PayloadFrame*>(pending.back().msg.payload.get())
          ->units.push_back(std::move(unit));
      continue;
    }
    // Open a new in-flight frame headed by this unit.
    std::unique_ptr<PayloadFrame> head;
    if (!frame_shells_.empty()) {
      head = std::move(frame_shells_.back());
      frame_shells_.pop_back();
    } else {
      head = std::make_unique<PayloadFrame>();
    }
    head->units.push_back(std::move(unit));
    ++monitor_messages_;  // one network message per frame that hits the wire
    pending.push_back(
        PendingFrame{MonitorMessage{msg.from, msg.to, std::move(head)}, at});
    schedule(at, [this, ch] { deliver_frame(ch); });
  }
  // The drained shell feeds the split path above (bounded like the monitor
  // pools).
  if (frame_shells_.size() < 32) {
    incoming->units.clear();
    frame_shells_.push_back(std::move(incoming));
  }
}

void SimRuntime::deliver_frame(int ch) {
  std::deque<PendingFrame>& pending =
      mon_pending_[static_cast<std::size_t>(ch)];
  assert(!pending.empty());
  PendingFrame pf = std::move(pending.front());
  pending.pop_front();
  monitor_end_ = std::max(monitor_end_, now_);
  if (hooks_) hooks_->on_monitor_message(std::move(pf.msg), now_);
}

}  // namespace decmon

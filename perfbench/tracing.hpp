// Span recording for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into each layer's public functions; the library itself is not
// instrumented. Two kinds of record exist:
//
//   * coarse spans (one per call): session root, trace generation,
//     admission, runtime construction, monitor construction, run(), result.
//     Each has a start, an end and a parent within its session.
//   * hook-level aggregates: the millions of MonitorHooks / MonitorNetwork
//     calls of a run are folded per session into (count, total, self) under
//     the run() span, so memory stays bounded.
//
// A span's self time is its duration minus the time its child spans cover.
// Hook-level calls nest (a monitor hook sends through the runtime), so the
// forwarding wrappers below keep a per-thread stack of open calls and charge
// each call's duration to its parent.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "decmon/distributed/runtime.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hook-level operations, one per (layer, public function) the wrappers
/// forward to.
enum class Op : int {
  kMonitorEvent,        ///< DecentralizedMonitor::on_local_event
  kMonitorMessage,      ///< DecentralizedMonitor::on_monitor_message
  kMonitorTermination,  ///< DecentralizedMonitor::on_local_termination
  kChannelEvent,        ///< ReliableChannel::on_local_event
  kChannelMessage,      ///< ReliableChannel::on_monitor_message
  kChannelTermination,  ///< ReliableChannel::on_local_termination
  kChannelSend,         ///< ReliableChannel::send (monitor side)
  kRuntimeSend,         ///< SimRuntime / SocketRuntime::send
  kCount,
};
constexpr int kNumOps = static_cast<int>(Op::kCount);
const char* op_name(Op op);

struct OpTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  OpTotals& operator+=(const OpTotals& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

/// Hook-level aggregates of one session (or socket drain), gathered from
/// every thread that calls into it. Each calling thread gets its own slot,
/// so the hot path takes no lock.
class SessionTrace {
 public:
  /// `keep_intervals`: also record every outermost call's interval, so
  /// overlapping calls from parallel node threads can be merged into the
  /// time they cover (socket drains; a few thousand calls).
  explicit SessionTrace(bool keep_intervals = false);

  SessionTrace(const SessionTrace&) = delete;
  SessionTrace& operator=(const SessionTrace&) = delete;

  template <class F>
  void timed(Op op, F&& fn);

  OpTotals totals(Op op) const;
  /// Sum of the durations of outermost calls (calls made by the runtime).
  std::int64_t outer_ns() const;
  /// Wall time covered by the union of outermost calls.
  std::int64_t outer_covered_ns() const;
  /// End of the last DecentralizedMonitor hook call on any thread (0 if
  /// none): the last time the monitoring layer did work.
  std::int64_t last_monitor_end_ns() const;

 private:
  static constexpr int kMaxThreads = 16;
  struct Slot {
    std::array<OpTotals, kNumOps> ops{};
    std::int64_t outer_ns = 0;
    std::int64_t last_monitor_end = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  };
  struct Frame {
    std::int64_t child_ns = 0;
  };

  Slot& slot();

  std::uint64_t id_;
  bool keep_intervals_;
  std::mutex mutex_;  ///< guards slot assignment only
  int used_ = 0;
  std::array<Slot, kMaxThreads> slots_;

  static thread_local Frame* tl_top_;
  static thread_local std::uint64_t tl_owner_;
  static thread_local int tl_slot_;
};

template <class F>
void SessionTrace::timed(Op op, F&& fn) {
  Slot& s = slot();
  Frame frame;
  Frame* const parent = tl_top_;
  tl_top_ = &frame;
  struct Restore {
    Frame* parent;
    ~Restore() { tl_top_ = parent; }
  } restore{parent};
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  const std::int64_t d = t1 - t0;
  if (parent) {
    parent->child_ns += d;
  } else {
    s.outer_ns += d;
    if (keep_intervals_) s.intervals.emplace_back(t0, t1);
  }
  if (op <= Op::kMonitorTermination && t1 > s.last_monitor_end) {
    s.last_monitor_end = t1;
  }
  OpTotals& t = s.ops[static_cast<std::size_t>(op)];
  t.count += 1;
  t.total_ns += d;
  t.self_ns += d - frame.child_ns;
}

/// MonitorNetwork that times every call and forwards it to `inner`.
class TracedNetwork final : public decmon::MonitorNetwork {
 public:
  TracedNetwork(decmon::MonitorNetwork* inner, SessionTrace* trace, Op op)
      : inner_(inner), trace_(trace), op_(op) {}

  void send(decmon::MonitorMessage msg) override {
    trace_->timed(op_, [&] { inner_->send(std::move(msg)); });
  }
  void send_perturbed(decmon::MonitorMessage msg,
                      const decmon::DeliveryPerturbation& p) override {
    trace_->timed(op_, [&] { inner_->send_perturbed(std::move(msg), p); });
  }
  double now() const override { return inner_->now(); }

 private:
  decmon::MonitorNetwork* inner_;
  SessionTrace* trace_;
  Op op_;
};

/// MonitorHooks that times every call and forwards it to `inner`.
class TracedHooks final : public decmon::MonitorHooks {
 public:
  TracedHooks(decmon::MonitorHooks* inner, SessionTrace* trace, Op event_op,
              Op message_op, Op termination_op)
      : inner_(inner),
        trace_(trace),
        event_op_(event_op),
        message_op_(message_op),
        termination_op_(termination_op) {}

  void on_local_event(int proc, const decmon::Event& event,
                      double now) override {
    trace_->timed(event_op_,
                  [&] { inner_->on_local_event(proc, event, now); });
  }
  void on_local_termination(int proc, double now) override {
    trace_->timed(termination_op_,
                  [&] { inner_->on_local_termination(proc, now); });
  }
  void on_monitor_message(decmon::MonitorMessage msg, double now) override {
    trace_->timed(message_op_, [&] {
      inner_->on_monitor_message(std::move(msg), now);
    });
  }

 private:
  decmon::MonitorHooks* inner_;
  SessionTrace* trace_;
  Op event_op_, message_op_, termination_op_;
};

/// One span record. Coarse spans have count 1; hook-level aggregates carry
/// their call count, and their start/end bound the run() span they sit
/// under.
struct SpanRecord {
  std::uint64_t session = 0;
  int id = 0;       ///< index within the session
  int parent = -1;  ///< id of the parent span, -1 for the session root
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
  std::int64_t total_ns = 0;
  std::int64_t covered_ns = 0;  ///< time covered by child spans

  std::int64_t self_ns() const { return total_ns - covered_ns; }
};

/// Span recorder for one session; appends to a thread-owned log. With a
/// null log every call is a no-op (the untraced path).
class SessionSpans {
 public:
  SessionSpans(std::uint64_t session, std::vector<SpanRecord>* log);

  int open(const char* name, int parent);
  void close(int id);
  /// Attach hook-level aggregates under `parent` (a closed run() span).
  /// `covered_ns` is the time they cover inside the parent.
  void aggregate(int parent, const SessionTrace& trace,
                 std::int64_t covered_ns);

 private:
  std::uint64_t session_;
  std::vector<SpanRecord>* log_;
  std::size_t base_;  ///< index of this session's first record in log_
};

/// RAII coarse span.
class Span {
 public:
  Span(SessionSpans& spans, const char* name, int parent)
      : spans_(spans), id_(spans.open(name, parent)) {}
  ~Span() { spans_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SessionSpans& spans_;
  int id_;
};

/// Write every span as one tab-separated line (header first).
bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

}  // namespace perfbench

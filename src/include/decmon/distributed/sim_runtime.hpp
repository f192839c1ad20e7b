// Deterministic discrete-event simulation runtime.
//
// Substitutes for the paper's physical testbed (five iOS devices on WiFi):
// trace actions fire at virtual times, messages experience a random
// (seeded) latency, and simultaneous occurrences are ordered by a stable
// (time, sequence) key, so every experiment row is exactly replayable.
//
// Scheduling is allocation-free: queue items hold the closure inline in a
// fixed-capacity InplaceTask (std::function would heap-allocate every
// capture bigger than two pointers), and messages move through the queue
// rather than being copied into it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "decmon/distributed/message.hpp"
#include "decmon/distributed/process.hpp"
#include "decmon/distributed/runtime.hpp"
#include "decmon/distributed/trace.hpp"
#include "decmon/util/inplace_function.hpp"
#include "decmon/util/rng.hpp"

namespace decmon {

/// How batched monitor frames (PayloadFrame) ride the simulated channels.
/// Either way every unit draws its own latency sample, so the global RNG
/// stream advances exactly as the unbatched path would.
enum class CoalesceMode : std::uint8_t {
  /// Schedule-preserving: a unit joins the channel's in-flight tail frame
  /// only when the FIFO clamp would have delivered it epsilon-spaced behind
  /// the previous delivery anyway. Delivery times match the unbatched
  /// simulation (up to epsilon), so the equivalence goldens hold
  /// bit-identically. Default.
  kExact,
  /// Join-while-in-flight: a unit joins whenever the channel's tail frame
  /// has not been delivered yet. Fewer, larger frames -- the realistic
  /// batching model, used by the bench cells; view-creation counters drift
  /// from the kExact schedule (verdicts do not).
  kTransit,
};

/// Message latencies are fixed: N(0.05, 0.02) trace seconds, truncated at
/// 0.001, for application and monitor messages alike. FaultyNetwork delay
/// spikes model slower networks.
struct SimConfig {
  std::uint64_t seed = 1;
  CoalesceMode coalesce = CoalesceMode::kExact;
};

class SimRuntime final : public MonitorNetwork {
 public:
  SimRuntime(SystemTrace trace, const AtomRegistry* registry,
             SimConfig config = {});

  /// Attach the monitoring layer (may be null for program-only runs).
  void set_hooks(MonitorHooks* hooks) { hooks_ = hooks; }

  /// Run to quiescence: all trace actions executed, all messages delivered.
  void run();

  // MonitorNetwork:
  void send(MonitorMessage msg) override;
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override;
  double now() const override { return now_; }

  int num_processes() const { return static_cast<int>(procs_.size()); }

  /// Recorded event history per process; index 0 is the initial pseudo-event.
  const std::vector<std::vector<Event>>& history() const { return history_; }

  /// Initial local states (for monitor initialization).
  std::vector<LocalState> initial_states() const;

  double program_end_time() const { return program_end_; }
  double monitor_end_time() const { return monitor_end_; }
  std::uint64_t app_messages_sent() const { return app_messages_; }
  std::uint64_t monitor_messages_sent() const { return monitor_messages_; }
  /// Internal + send + receive events actually generated.
  std::uint64_t program_events() const { return program_events_; }

 private:
  /// Largest scheduled closure: `this` + a moved-in AppMessage (whose inline
  /// vector clock dominates). A bigger capture is a compile error.
  static constexpr std::size_t kTaskCapacity = 88;
  using Task = InplaceTask<kTaskCapacity>;

  struct Item {
    double time;
    std::uint64_t seq;  ///< tie-break for determinism
    Task fn;
    bool operator>(const Item& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void schedule(double time, Task fn);
  void execute_action(int proc);
  void schedule_next_action(int proc);
  void deliver_app(const AppMessage& msg);
  void record_and_notify(const Event& e);
  void maybe_terminate(int proc);
  /// FIFO channels: delivery never earlier than the previous one.
  double fifo_delivery_time(std::vector<double>& last, int channel,
                            double candidate);
  /// Convoy engine for batched frames (see CoalesceMode): per-unit latency
  /// draws, units re-batched onto the channel's in-flight tail frame.
  void send_frame(MonitorMessage msg);
  /// Deliver the oldest pending frame on channel `ch`.
  void deliver_frame(int ch);

  const AtomRegistry* registry_;
  SimConfig config_;
  MonitorHooks* hooks_ = nullptr;

  std::vector<ProgramProcess> procs_;
  std::vector<std::vector<Event>> history_;
  std::vector<int> remaining_receives_;
  std::vector<char> terminated_;

  NormalWait app_latency_;
  NormalWait mon_latency_;
  std::vector<double> app_last_delivery_;  ///< [from * n + to]
  std::vector<double> mon_last_delivery_;

  /// In-flight frames per monitor channel [from * n + to]: scheduled but
  /// not yet delivered, in delivery order. A frame sent while the tail is
  /// still pending may merge into it (CoalesceMode).
  struct PendingFrame {
    MonitorMessage msg;
    double at;
  };
  std::vector<std::deque<PendingFrame>> mon_pending_;
  /// Frame shells recycled by the convoy engine: an incoming frame whose
  /// units all merged into in-flight frames leaves an empty shell behind,
  /// which the next split reuses.
  std::vector<std::unique_ptr<PayloadFrame>> frame_shells_;

  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  double program_end_ = 0.0;
  double monitor_end_ = 0.0;
  std::uint64_t app_messages_ = 0;
  std::uint64_t monitor_messages_ = 0;
  std::uint64_t program_events_ = 0;
};

}  // namespace decmon

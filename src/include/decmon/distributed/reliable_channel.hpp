// Reliable channel layer: per-channel ack/retransmit protocol between the
// monitoring layer and a (possibly lossy) MonitorNetwork.
//
// The paper's fault model -- and FaultyNetwork's default `drop` mode --
// assumes every message is eventually delivered. ReliableChannel removes
// that assumption from the transport: it wraps every cross-node monitor
// payload in a sequenced envelope, keeps the encoded bytes until the
// receiver's cumulative ack covers them, retransmits on a timer with
// exponential backoff and seeded jitter, and deduplicates at the receiver.
// Stacked over a FaultyNetwork with `lose_prob > 0` (true loss, no
// redelivery), the monitor stack above sees exactly the delivery guarantees
// the algorithm requires: every payload arrives at least once, duplicates
// are filtered, and nothing is ever silently lost.
//
// Design points:
//   * One object implements both MonitorNetwork (outgoing: monitors send
//     through it) and MonitorHooks (incoming: the runtime's deliveries pass
//     through it and unwrapped payloads continue to the inner hooks).
//     Stacking: monitors -> ReliableChannel -> FaultyNetwork -> runtime,
//     and runtime -> [CrashInjector ->] ReliableChannel -> monitors.
//   * Retransmit timers are self-addressed ChannelTimer messages sent with
//     `extra_delay` = the backoff interval: self-sends are never faulted
//     and every runtime delivers them, so the protocol needs no runtime
//     timer API and stays deterministic under SimRuntime/ReplayRuntime.
//   * Zero-allocation clean path: envelope shells, timer shells and byte
//     buffers are pooled per node; first transmissions carry the original
//     payload object through the envelope (no decode at the receiver), and
//     the wire-encoded bytes are retained sender-side for retransmission
//     (decoded only on that rare path).
//   * Determinism: the only randomness is the per-node jitter stream,
//     seeded from ReliableChannelConfig::seed -- a pure function of the
//     node's own timer/send order, so sim and replay runs replay exactly.
//
// Thread-safety: per-node state is guarded by a per-node mutex. Under
// ThreadRuntime, node i's sends and deliveries both happen on node i's
// thread, but acks mutate the *sender's* link state from the receiver's
// thread, so the locks are load-bearing there.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "decmon/distributed/runtime.hpp"
#include "decmon/util/rng.hpp"

namespace decmon {

/// Sequenced envelope around a monitor payload (wire tag 3). `seq == 0`
/// marks a pure ack (no payload). First transmissions carry the original
/// payload object in `inner`; retransmissions carry only `bytes` (the
/// sender-retained encoding) and are decoded at the receiver.
struct ChannelEnvelope final : NetPayload {
  static constexpr std::uint8_t kTag = 3;
  ChannelEnvelope() : NetPayload(kTag) {}

  std::uint64_t seq = 0;  ///< per-(from,to) stream position; 0 = pure ack
  std::uint64_t ack = 0;  ///< cumulative: sender has all to->from seq <= ack
  std::unique_ptr<NetPayload> inner;  ///< first transmission only
  std::vector<std::uint8_t> bytes;    ///< retransmissions only

  std::unique_ptr<NetPayload> clone() const override;
};

/// Self-addressed retransmit-timer tick (wire tag 4). Never crosses the
/// network and never duplicated.
struct ChannelTimer final : NetPayload {
  static constexpr std::uint8_t kTag = 4;
  ChannelTimer() : NetPayload(kTag) {}
};

struct ReliableChannelConfig {
  /// Base retransmission timeout, trace seconds. Doubles per attempt, up
  /// to 64 * rto.
  double rto = 3.0;
  /// Uniform jitter fraction on every timer interval (desynchronizes
  /// retransmit bursts; drawn from the seeded per-node stream).
  double jitter = 0.25;
  std::uint64_t seed = 1;

  std::string to_string() const;
};

/// Per-node protocol counters (read after the run, or from the node's own
/// dispatch context).
struct ChannelStats {
  std::uint64_t data_sent = 0;        ///< first transmissions of payloads
  std::uint64_t retransmissions = 0;  ///< timer-driven re-sends
  std::uint64_t acks_sent = 0;        ///< pure-ack envelopes
  std::uint64_t dup_suppressed = 0;   ///< deliveries filtered by dedup
  std::uint64_t timer_fires = 0;

  ChannelStats& operator+=(const ChannelStats& other) {
    data_sent += other.data_sent;
    retransmissions += other.retransmissions;
    acks_sent += other.acks_sent;
    dup_suppressed += other.dup_suppressed;
    timer_fires += other.timer_fires;
    return *this;
  }
};

class ReliableChannel final : public MonitorNetwork, public MonitorHooks {
 public:
  /// `inner` is the transport below (typically a FaultyNetwork); it must
  /// outlive the channel. Hooks (the layer above, typically a
  /// DecentralizedMonitor) are attached afterwards with set_hooks -- the
  /// monitor layer is constructed against this object, so it cannot exist
  /// yet.
  ReliableChannel(MonitorNetwork* inner, int num_processes,
                  ReliableChannelConfig config = {});

  void set_hooks(MonitorHooks* hooks) { hooks_ = hooks; }

  // MonitorNetwork (outgoing path, called by monitors):
  void send(MonitorMessage msg) override;
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override;
  double now() const override { return inner_->now(); }

  // MonitorHooks (incoming path, called by the runtime / crash injector):
  void on_local_event(int proc, const Event& event, double now) override;
  void on_local_termination(int proc, double now) override;
  void on_monitor_message(MonitorMessage msg, double now) override;

  int num_processes() const { return n_; }
  ChannelStats stats(int node) const;
  ChannelStats total_stats() const;
  /// Unacked payloads currently held for retransmission by `node`.
  std::size_t unacked_count(int node) const;

  /// Serialize node `node`'s full protocol state (sequence numbers, unacked
  /// buffers, dedup state, jitter stream) into a versioned, CRC-protected
  /// blob -- the channel half of a crash checkpoint. Stats are not state.
  std::vector<std::uint8_t> save_node(int node) const;
  /// Restore a blob produced by save_node. Throws WireError on any
  /// corruption; on throw the node's state is unchanged. Retransmit
  /// deadlines are re-based to `now` and the timer is re-armed when unacked
  /// payloads remain.
  void restore_node(int node, const std::vector<std::uint8_t>& blob,
                    double now);

 private:
  /// One in-flight payload awaiting a cumulative ack.
  struct Unacked {
    std::uint64_t seq = 0;
    int to = -1;
    int attempts = 0;        ///< transmissions so far (>= 1)
    double deadline = 0.0;   ///< next retransmission time
    std::vector<std::uint8_t> bytes;
  };

  /// Node i's per-peer link state.
  struct Link {
    std::uint64_t next_seq = 1;  ///< next outgoing i->peer sequence
    std::uint64_t recv_cum = 0;  ///< highest contiguous peer->i seq seen
    /// Out-of-order peer->i seqs above recv_cum, ascending. Deliveries are
    /// forwarded immediately (monitors tolerate reordering); this set only
    /// drives dedup and cumulative-ack advancement.
    std::vector<std::uint64_t> recv_ooo;
  };

  struct NodeState {
    mutable std::mutex mu;
    std::vector<Link> links;        ///< indexed by peer
    std::vector<Unacked> unacked;   ///< all destinations, unordered
    bool timer_armed = false;
    SplitMix64 jitter_rng{0};
    ChannelStats stats;
    // Pools (shells and buffers recirculate; bounded).
    std::vector<std::unique_ptr<ChannelEnvelope>> envelope_pool;
    std::vector<std::unique_ptr<ChannelTimer>> timer_pool;
    std::vector<std::vector<std::uint8_t>> buffer_pool;
  };

  NodeState& node(int i) const;
  /// Pool accessors; caller must hold the node's mutex.
  std::unique_ptr<ChannelEnvelope> acquire_envelope(NodeState& ns);
  void recycle_envelope(NodeState& ns, std::unique_ptr<ChannelEnvelope> env);
  std::vector<std::uint8_t> acquire_buffer(NodeState& ns);
  void recycle_buffer(NodeState& ns, std::vector<std::uint8_t>&& buf);
  double backoff_interval(NodeState& ns, int attempts);
  /// Arm the retransmit timer to fire at `deadline` (no-op when armed).
  /// Caller holds ns.mu; `self` is the node index.
  void arm_timer(NodeState& ns, int self, double deadline);
  /// Drop unacked entries covered by a cumulative ack from `peer`.
  void apply_ack(NodeState& ns, int peer, std::uint64_t ack);
  /// Handle an arrived data/ack envelope addressed to `to`.
  void on_envelope(int from, int to, std::unique_ptr<ChannelEnvelope> env,
                   double now);
  /// Timer fired at `self`: retransmit everything due, re-arm if needed.
  void on_timer(int self, std::unique_ptr<ChannelTimer> timer, double now);
  void send_pure_ack(NodeState& ns, int from_node, int to_node);

  MonitorNetwork* inner_;
  MonitorHooks* hooks_ = nullptr;
  int n_;
  ReliableChannelConfig config_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
};

}  // namespace decmon

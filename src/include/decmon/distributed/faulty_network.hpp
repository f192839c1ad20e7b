// Fault-injecting decorator over a MonitorNetwork (the adverse-delivery
// layer the soundness/completeness claims must survive).
//
// The underlying runtimes guarantee reliable per-channel FIFO delivery with
// finite delay -- the friendliest schedule family the algorithm's
// assumptions admit. FaultyNetwork widens that family: seeded, per-channel
// streams of delay spikes, reordering, duplicate delivery and bounded
// drop-with-redelivery turn every run into an adversarial but still *legal*
// asynchronous execution (the paper's fault model assumes messages are
// never permanently lost -- a dropped token would strand its parent view
// forever, see DESIGN.md §7 -- so drops are always redelivered after a
// bounded number of retransmissions).
//
// Every decision is drawn from a per-channel SplitMix64-seeded stream, so a
// fault schedule is a pure function of {seed, config} and independent of
// cross-channel interleavings: under SimRuntime a failing run replays
// exactly, and under ThreadRuntime each channel sees the same fault
// sequence in every run even though wall-clock interleavings differ.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "decmon/distributed/runtime.hpp"
#include "decmon/util/rng.hpp"

namespace decmon {

/// Fault mix for one run. Probabilities are per monitor message; self-sends
/// (same-node handoffs) are never faulted -- they do not cross the network.
struct FaultConfig {
  /// Delay spike: the channel stalls and this message (plus, through the
  /// FIFO clamp, everything behind it) arrives late.
  double delay_prob = 0.0;
  double delay_mu = 0.5;     ///< spike magnitude, trace seconds, N(mu, sigma)
  double delay_sigma = 0.2;  ///< truncated at 0

  /// Reordering: the message bypasses the per-channel FIFO clamp, so it can
  /// overtake earlier sends and be overtaken by later ones.
  double reorder_prob = 0.0;

  /// Duplicate delivery: a cloned copy is delivered in addition to the
  /// original, itself delayed and exempt from FIFO (a retransmitted packet
  /// whose original also arrived).
  double dup_prob = 0.0;

  /// Drop-with-redelivery: the message is "lost" between 1 and max_drops
  /// times and retransmitted after redelivery_delay each time; the final
  /// delivery bypasses FIFO (retransmissions do not hold the channel).
  double drop_prob = 0.0;
  int max_drops = 3;
  double redelivery_delay = 0.25;  ///< trace seconds per lost attempt

  /// True message loss: the message is permanently swallowed, no
  /// redelivery ever. This violates the bare algorithm's fault model -- a
  /// lost token strands its parent view forever -- and is survivable only
  /// with a ReliableChannel stacked above (the channel's ack/retransmit
  /// loop turns permanent loss back into bounded delay).
  double lose_prob = 0.0;

  std::uint64_t seed = 1;

  bool any_faults() const {
    return delay_prob > 0 || reorder_prob > 0 || dup_prob > 0 ||
           drop_prob > 0 || lose_prob > 0;
  }

  std::string to_string() const;
};

/// Counters of injected faults (for logs and repro files).
struct FaultStats {
  std::uint64_t messages = 0;      ///< cross-node messages seen
  std::uint64_t delay_spikes = 0;
  std::uint64_t reordered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t dropped = 0;       ///< individual lost transmissions
  std::uint64_t lost = 0;          ///< permanently swallowed (lose_prob)
};

class FaultyNetwork final : public MonitorNetwork {
 public:
  /// `inner` must outlive the decorator. `num_processes` sizes the
  /// per-channel decision streams.
  FaultyNetwork(MonitorNetwork* inner, int num_processes, FaultConfig config);

  // MonitorNetwork:
  void send(MonitorMessage msg) override;
  void send_perturbed(MonitorMessage msg,
                      const DeliveryPerturbation& perturbation) override;
  double now() const override { return inner_->now(); }

  FaultStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  const FaultConfig& config() const { return config_; }

 private:
  struct Channel {
    SplitMix64 rng{0};  ///< the channel's fault stream, advanced per draw
  };

  Channel& channel(int from, int to);
  /// Truncated-normal delay spike from the channel's stream.
  double spike(Channel& ch);

  MonitorNetwork* inner_;
  int n_;
  FaultConfig config_;
  /// Guards channels_ and stats_: under ThreadRuntime, node threads (and
  /// off-thread injectors) send concurrently. Decision draws happen under
  /// the lock; inner sends happen outside it, so the per-channel stream
  /// stays a pure function of the channel's own send order.
  mutable std::mutex mu_;
  std::vector<Channel> channels_;  ///< [from * n + to]
  FaultStats stats_;
};

}  // namespace decmon

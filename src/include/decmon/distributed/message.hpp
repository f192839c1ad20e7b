// Message types moved over the (simulated or threaded) network.
//
// Application messages carry the sender's vector clock (piggybacked, §4.2).
// Monitor-to-monitor messages are opaque to the transport: the monitoring
// layer defines concrete payloads (tokens, termination signals) derived from
// NetPayload, so the runtimes need no dependency on the monitor module.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "decmon/util/vector_clock.hpp"

namespace decmon {

/// Application-level message between program processes.
struct AppMessage {
  int from = -1;
  int to = -1;
  VectorClock vc;            ///< sender's clock at the send event
  std::uint32_t send_sn = 0; ///< sender's sequence number of the send event
};

/// Base class for monitor-layer payloads routed through a runtime.
///
/// `tag` identifies the concrete payload type (each subclass defines a
/// distinct `kTag` constant) so hot-path dispatch is a byte compare instead
/// of a dynamic_cast.
struct NetPayload {
  explicit NetPayload(std::uint8_t t = 0) : tag(t) {}
  virtual ~NetPayload() = default;

  /// Deep-copy the payload, or null when the concrete type does not support
  /// duplication. Only fault-injection layers call this (to model duplicate
  /// delivery); the regular send path always moves payloads.
  virtual std::unique_ptr<NetPayload> clone() const { return nullptr; }

  const std::uint8_t tag;
};

/// A batch of monitor payloads delivered (and acked, when a reliable
/// channel is stacked underneath) as one unit. Lives here rather than in
/// the monitor module so the runtimes can split/merge frames without a
/// dependency on monitor types: the units stay opaque NetPayloads.
struct PayloadFrame final : NetPayload {
  static constexpr std::uint8_t kTag = 5;
  PayloadFrame() : NetPayload(kTag) {}

  std::vector<std::unique_ptr<NetPayload>> units;

  std::unique_ptr<NetPayload> clone() const override {
    auto copy = std::make_unique<PayloadFrame>();
    copy->units.reserve(units.size());
    for (const auto& u : units) {
      auto uc = u ? u->clone() : nullptr;
      if (!uc) return nullptr;  // a frame clones only if every unit does
      copy->units.push_back(std::move(uc));
    }
    return copy;
  }
};

/// A monitor-to-monitor message in flight. Owns its payload exclusively:
/// messages move through the runtime to the receiver, they are never
/// duplicated, so sending costs zero allocations when the payload shell is
/// recycled.
struct MonitorMessage {
  int from = -1;
  int to = -1;
  std::unique_ptr<NetPayload> payload;
};

}  // namespace decmon

// Monitoring-overhead metrics, matching the measurements of Chapter 5:
// message counts (Fig. 5.4/5.5), delayed events (Fig. 5.7), delay time
// (Fig. 5.6) and global views (Fig. 5.8).
#pragma once

#include <cstdint>
#include <string>

namespace decmon {

struct MonitorStats {
  // -- communication --
  std::uint64_t tokens_created = 0;
  std::uint64_t token_messages_sent = 0;  ///< network sends (excl. self)
  std::uint64_t token_hops = 0;           ///< total hops over all tokens
  std::uint64_t termination_messages = 0;

  // -- wire (batched frames; see DESIGN.md §9) --
  std::uint64_t frames_sent = 0;  ///< batched frames flushed to the net
  std::uint64_t bytes_sent = 0;   ///< wire-v2 encoded bytes, send side

  // -- memory --
  std::uint64_t global_views_created = 0;
  std::uint64_t global_views_merged = 0;
  std::uint64_t peak_global_views = 0;
  std::uint64_t peak_waiting_tokens = 0;
  std::uint64_t views_overflowed = 0;  ///< cap breaches (MonitorOverflow)

  // -- streaming GC (DESIGN.md §12; zero when streaming is off) --
  std::uint64_t gc_sweeps = 0;        ///< trim passes run
  std::uint64_t history_trimmed = 0;  ///< events removed from the window
  std::uint64_t peak_history = 0;     ///< max retained history window
  std::uint64_t floor_messages = 0;   ///< GC floor gossip messages sent
  std::uint64_t resync_floors = 0;    ///< floor-resync handshakes after restore

  // -- crash tolerance (filled in from ReliableChannel / CrashInjector
  //    counters by the harnesses; zero on fault-free runs) --
  std::uint64_t retransmissions = 0;    ///< timer-driven channel re-sends
  std::uint64_t acks_sent = 0;          ///< pure-ack channel envelopes
  std::uint64_t dup_suppressed = 0;     ///< deliveries filtered by dedup
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;   ///< total bytes over all checkpoints
  std::uint64_t crash_restarts = 0;

  // -- latency --
  std::uint64_t events_processed = 0;
  std::uint64_t events_delayed = 0;   ///< events enqueued behind a token
  std::uint64_t pending_sum = 0;      ///< sum of queue sizes at each event
  std::uint64_t pending_samples = 0;
  std::uint64_t max_pending = 0;
  double finish_time = 0.0;           ///< when the monitor fully drained

  double average_delayed_events() const {
    return pending_samples ? static_cast<double>(pending_sum) /
                                 static_cast<double>(pending_samples)
                           : 0.0;
  }

  /// Aggregate (for whole-system reporting).
  MonitorStats& operator+=(const MonitorStats& other);

  std::string to_string() const;
};

}  // namespace decmon

#include "decmon/monitor/stats.hpp"

#include <algorithm>
#include <sstream>

namespace decmon {

MonitorStats& MonitorStats::operator+=(const MonitorStats& other) {
  tokens_created += other.tokens_created;
  token_messages_sent += other.token_messages_sent;
  token_hops += other.token_hops;
  termination_messages += other.termination_messages;
  frames_sent += other.frames_sent;
  bytes_sent += other.bytes_sent;
  global_views_created += other.global_views_created;
  global_views_merged += other.global_views_merged;
  peak_global_views += other.peak_global_views;
  peak_waiting_tokens = std::max(peak_waiting_tokens,
                                 other.peak_waiting_tokens);
  views_overflowed += other.views_overflowed;
  gc_sweeps += other.gc_sweeps;
  history_trimmed += other.history_trimmed;
  peak_history = std::max(peak_history, other.peak_history);
  floor_messages += other.floor_messages;
  resync_floors += other.resync_floors;
  retransmissions += other.retransmissions;
  acks_sent += other.acks_sent;
  dup_suppressed += other.dup_suppressed;
  checkpoints_taken += other.checkpoints_taken;
  checkpoint_bytes += other.checkpoint_bytes;
  crash_restarts += other.crash_restarts;
  events_processed += other.events_processed;
  events_delayed += other.events_delayed;
  pending_sum += other.pending_sum;
  pending_samples += other.pending_samples;
  max_pending = std::max(max_pending, other.max_pending);
  finish_time = std::max(finish_time, other.finish_time);
  return *this;
}

std::string MonitorStats::to_string() const {
  std::ostringstream os;
  os << "stats{msgs=" << token_messages_sent << " tokens=" << tokens_created
     << " hops=" << token_hops << " frames=" << frames_sent
     << " wire_bytes=" << bytes_sent << " views=" << global_views_created
     << " delayed=" << events_delayed << " avg_queue="
     << average_delayed_events();
  if (gc_sweeps || history_trimmed) {
    os << " gc=" << gc_sweeps << " trimmed=" << history_trimmed
       << " peak_hist=" << peak_history;
  }
  if (views_overflowed) os << " overflowed=" << views_overflowed;
  os << "}";
  return os.str();
}

}  // namespace decmon

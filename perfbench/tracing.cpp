#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_next_trace_id{1};
}  // namespace

thread_local SessionTrace::Frame* SessionTrace::tl_top_ = nullptr;
thread_local std::uint64_t SessionTrace::tl_owner_ = 0;
thread_local int SessionTrace::tl_slot_ = 0;

const char* op_name(Op op) {
  switch (op) {
    case Op::kMonitorEvent: return "monitor.on_local_event";
    case Op::kMonitorMessage: return "monitor.on_monitor_message";
    case Op::kMonitorTermination: return "monitor.on_local_termination";
    case Op::kChannelEvent: return "distributed.channel.on_local_event";
    case Op::kChannelMessage: return "distributed.channel.on_monitor_message";
    case Op::kChannelTermination:
      return "distributed.channel.on_local_termination";
    case Op::kChannelSend: return "distributed.channel.send";
    case Op::kRuntimeSend: return "distributed.runtime.send";
    case Op::kCount: break;
  }
  return "?";
}

SessionTrace::SessionTrace(bool keep_intervals)
    : id_(g_next_trace_id.fetch_add(1)), keep_intervals_(keep_intervals) {}

SessionTrace::Slot& SessionTrace::slot() {
  if (tl_owner_ != id_) {
    std::scoped_lock lock(mutex_);
    if (used_ == kMaxThreads) {
      throw std::runtime_error("SessionTrace: too many calling threads");
    }
    tl_owner_ = id_;
    tl_slot_ = used_++;
  }
  return slots_[static_cast<std::size_t>(tl_slot_)];
}

OpTotals SessionTrace::totals(Op op) const {
  OpTotals t;
  for (int i = 0; i < used_; ++i) {
    t += slots_[static_cast<std::size_t>(i)].ops[static_cast<std::size_t>(op)];
  }
  return t;
}

std::int64_t SessionTrace::outer_ns() const {
  std::int64_t t = 0;
  for (int i = 0; i < used_; ++i) t += slots_[static_cast<std::size_t>(i)].outer_ns;
  return t;
}

std::int64_t SessionTrace::outer_covered_ns() const {
  if (!keep_intervals_) return outer_ns();
  std::vector<std::pair<std::int64_t, std::int64_t>> all;
  for (int i = 0; i < used_; ++i) {
    const auto& iv = slots_[static_cast<std::size_t>(i)].intervals;
    all.insert(all.end(), iv.begin(), iv.end());
  }
  std::sort(all.begin(), all.end());
  std::int64_t covered = 0, cur_start = 0, cur_end = -1;
  for (const auto& [a, b] : all) {
    if (a > cur_end) {
      if (cur_end >= cur_start) covered += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
    } else {
      cur_end = std::max(cur_end, b);
    }
  }
  if (cur_end >= cur_start) covered += cur_end - cur_start;
  return covered;
}

std::int64_t SessionTrace::last_monitor_end_ns() const {
  std::int64_t t = 0;
  for (int i = 0; i < used_; ++i) {
    t = std::max(t, slots_[static_cast<std::size_t>(i)].last_monitor_end);
  }
  return t;
}

SessionSpans::SessionSpans(std::uint64_t session, std::vector<SpanRecord>* log)
    : session_(session), log_(log), base_(log ? log->size() : 0) {}

int SessionSpans::open(const char* name, int parent) {
  if (!log_) return -1;
  SpanRecord r;
  r.session = session_;
  r.id = static_cast<int>(log_->size() - base_);
  r.parent = parent;
  r.name = name;
  r.start_ns = now_ns();
  log_->push_back(std::move(r));
  return log_->back().id;
}

void SessionSpans::close(int id) {
  if (!log_) return;
  SpanRecord& r = (*log_)[base_ + static_cast<std::size_t>(id)];
  r.end_ns = now_ns();
  r.total_ns = r.end_ns - r.start_ns;
  if (r.parent >= 0) {
    (*log_)[base_ + static_cast<std::size_t>(r.parent)].covered_ns +=
        r.total_ns;
  }
}

void SessionSpans::aggregate(int parent, const SessionTrace& trace,
                             std::int64_t covered_ns) {
  if (!log_) return;
  SpanRecord& p = (*log_)[base_ + static_cast<std::size_t>(parent)];
  p.covered_ns += covered_ns;
  const std::int64_t start = p.start_ns, end = p.end_ns;
  for (int i = 0; i < kNumOps; ++i) {
    const OpTotals t = trace.totals(static_cast<Op>(i));
    if (t.count == 0) continue;
    SpanRecord r;
    r.session = session_;
    r.id = static_cast<int>(log_->size() - base_);
    r.parent = parent;
    r.name = op_name(static_cast<Op>(i));
    r.start_ns = start;
    r.end_ns = end;
    r.count = t.count;
    r.total_ns = t.total_ns;
    r.covered_ns = t.total_ns - t.self_ns;
    log_->push_back(std::move(r));
  }
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "session\tid\tparent\tname\tstart_ns\tend_ns\tcount\ttotal_ns"
               "\tself_ns\n");
  for (const SpanRecord& r : spans) {
    std::fprintf(f, "%llu\t%d\t%d\t%s\t%lld\t%lld\t%llu\t%lld\t%lld\n",
                 static_cast<unsigned long long>(r.session), r.id, r.parent,
                 r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.count),
                 static_cast<long long>(r.total_ns),
                 static_cast<long long>(r.self_ns()));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

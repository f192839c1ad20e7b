// The four benchmark workloads. Each runs an untraced phase that yields the
// end-to-end metrics; with tracing on, a traced phase follows that replays
// the same inputs through forwarding wrappers and yields the per-layer
// metrics. Verdicts are checked against an independent reference after the
// timed region.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "decmon/decmon.hpp"
#include "tracing.hpp"

namespace perfbench {

using decmon::Verdict;
using decmon::paper::Property;
using decmon::service::MonitoringService;
using decmon::service::SessionOutcome;
using decmon::service::SessionSpec;
using Clock = std::chrono::steady_clock;

namespace {

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // value is in kB
    }
  }
  return 0.0;
}

constexpr int kShards = 3;
constexpr int kSetupReps = 7;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Run `fn(i)` for i in [0, count) on `threads` worker threads.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// What a service-hosted workload feeds the program: the session specs,
/// drawn from the seed, and for the open loop their arrival offsets.
struct SimInputs {
  std::vector<SessionSpec> specs;
  std::vector<double> due_s;  ///< open loop only: arrival offsets (s)
  std::vector<std::pair<Property, int>> pairs;  ///< admitted at set-up
};

decmon::SystemTrace make_trace(const SessionSpec& spec) {
  decmon::SystemTrace trace =
      decmon::generate_trace(decmon::paper::experiment_params(
          spec.property, spec.num_processes, spec.trace_seed, spec.comm_mu,
          spec.comm_enabled, spec.internal_events));
  decmon::force_final_all_true(trace);
  return trace;
}

/// Closed-loop pool: n=5 sessions of properties D and F, each with its own
/// trace seed. One session in three has property `third`, the rest the
/// other one, so the median does not sit between the two properties' costs.
SimInputs closed_inputs(std::uint64_t seed, int sessions, Property third,
                        int internal_events, bool streaming) {
  const Property rest = third == Property::kD ? Property::kF : Property::kD;
  decmon::SplitMix64 rng(seed);
  SimInputs in;
  for (int i = 0; i < sessions; ++i) {
    SessionSpec spec;
    spec.property = i % 3 == 0 ? third : rest;
    spec.num_processes = 5;
    spec.trace_seed = rng.next();
    spec.comm_mu = 3.0;
    spec.internal_events = internal_events;
    spec.options.streaming = streaming;
    in.specs.push_back(spec);
  }
  in.pairs = {{Property::kD, 5}, {Property::kF, 5}};
  return in;
}

SimInputs walk_inputs(std::uint64_t seed) {
  // Mostly F: the token walk's heaviest cell.
  return closed_inputs(seed, 144, Property::kD, 25, /*streaming=*/false);
}

SimInputs stream_inputs(std::uint64_t seed) {
  // Mostly F, at twice the paper's default trace length, sweeping every 16
  // local events: many GC sweeps per process, and ~150 sessions per run.
  SimInputs in = closed_inputs(seed, 96, Property::kD, 50, /*streaming=*/true);
  for (SessionSpec& spec : in.specs) spec.options.gc_interval = 16;
  return in;
}

/// Offered load of the open loop, sessions/s: about half of what three
/// shards complete at saturation on this mix.
constexpr double kFleetRate = 1000.0;

SimInputs fleet_inputs(std::uint64_t seed, double seconds) {
  decmon::SplitMix64 rng(seed);
  SimInputs in;
  double t = 0.0;
  for (int i = 0;; ++i) {
    // Poisson arrivals: exponential gaps from a 53-bit uniform.
    const double u =
        static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log1p(-u) / kFleetRate;
    if (t >= seconds) break;
    SessionSpec spec;
    spec.property = decmon::paper::kAllProperties[i % 6];
    spec.num_processes = 3;
    spec.trace_seed = rng.next();
    in.specs.push_back(spec);
    in.due_s.push_back(t);
  }
  for (Property p : decmon::paper::kAllProperties) in.pairs.push_back({p, 3});
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: draw the inputs, start the service, admit each (property, n).
// ---------------------------------------------------------------------------

struct AdmitStats {
  std::vector<double> admit_us;
  std::uint64_t aot_hits = 0;
  std::uint64_t synthesis_misses = 0;
};

/// Admit each pair as a freshly started process would: the registry of
/// ahead-of-time generated monitors is rebuilt and the synthesis memo
/// emptied first, so every set-up pays the same cold admission.
AdmitStats admit(const std::vector<std::pair<Property, int>>& pairs) {
  auto& registry = decmon::CompiledPropertyRegistry::instance();
  registry.clear();
  decmon::paper::synthesis_cache_clear();
  const auto before = registry.stats();
  AdmitStats st;
  for (const auto& [p, n] : pairs) {
    const auto t0 = Clock::now();
    decmon::MonitorSession session(
        decmon::paper::shared_property(p, n, decmon::paper::make_registry(n)));
    st.admit_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  const auto after = registry.stats();
  st.aot_hits = after.hits - before.hits;
  st.synthesis_misses = (after.misses - before.misses) +
                        (after.mismatches - before.mismatches);
  return st;
}

struct SimSetup {
  SimInputs inputs;
  std::unique_ptr<MonitoringService> svc;
  AdmitStats admission;
  double setup_s = 0.0;  ///< median over kSetupReps set-ups
};

/// Warm the process: one session of the paper's default length per
/// (property, n) pair, with the workload's options, run on this thread, so
/// allocator pools and caches are live before the first timed request. The
/// warm-up traces are the same for every seed.
void warm_up(const SimInputs& in) {
  for (const auto& [p, n] : in.pairs) {
    SessionSpec spec;
    spec.property = p;
    spec.num_processes = n;
    spec.options = in.specs.front().options;
    decmon::MonitorSession(decmon::paper::shared_property(
                               p, n, decmon::paper::make_registry(n)))
        .run(make_trace(spec), spec.sim, spec.options);
  }
}

SimSetup set_up_sim(const std::function<SimInputs()>& make_inputs) {
  SimSetup best;
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SimSetup s;
    const auto t0 = Clock::now();
    s.inputs = make_inputs();
    decmon::service::ServiceConfig config;
    config.num_shards = kShards;
    s.svc = std::make_unique<MonitoringService>(config);
    s.admission = admit(s.inputs.pairs);
    warm_up(s.inputs);
    samples.push_back(ms_between(t0, Clock::now()) / 1e3);
    best = std::move(s);  // the previous service drains and joins here
  }
  best.setup_s = quantile(samples, 0.5);
  return best;
}

// ---------------------------------------------------------------------------
// Untraced service run
// ---------------------------------------------------------------------------

struct SimRun {
  std::vector<SessionOutcome> outcomes;   ///< by id
  std::vector<std::size_t> spec_of;       ///< outcome id -> spec index
  std::vector<double> lag_ms;             ///< due -> submit, by id
  std::vector<double> sent_ms;            ///< run start -> submit, by id
  std::vector<double> submit_us;          ///< per submit() call
  double window_s = 0.0;                  ///< run start -> last submit
  double wall_s = 0.0;                    ///< run start -> drained
  int rounds = 0;
  double peak_rss_mb = 0.0;
  decmon::service::ServiceStats stats;  ///< after the drain
  std::uint64_t backlog_at_end = 0;  ///< open loop: admitted - completed
                                     ///< when the last arrival was sent
};

/// Closed loop at saturation: the client keeps kWindow sessions outstanding
/// (two per shard, so no shard waits on the client), cycling through the
/// specs; it stops sending once `seconds` have passed and every spec was
/// sent at least once, then drains. It polls completions every kPoll:
/// stats() merges every shard's histograms under the service lock, so
/// polling much faster would slow the shards it measures.
constexpr std::uint64_t kWindow = 2 * kShards;
constexpr auto kPoll = std::chrono::milliseconds(2);

SimRun run_closed(SimSetup& setup, double seconds) {
  SimRun run;
  MonitoringService& svc = *setup.svc;
  const auto& specs = setup.inputs.specs;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::uint64_t sent = 0;
  for (;;) {
    const auto due = Clock::now();
    if (due >= deadline && sent >= specs.size()) break;
    const std::uint64_t completed = svc.stats().completed;
    if (sent - completed >= kWindow) {
      std::this_thread::sleep_for(kPoll);
      continue;
    }
    const std::size_t i = sent % specs.size();
    const auto t0 = Clock::now();
    svc.submit(specs[i]);
    const auto t1 = Clock::now();
    run.submit_us.push_back(ms_between(t0, t1) * 1e3);
    run.lag_ms.push_back(ms_between(due, t0));
    run.sent_ms.push_back(ms_between(start, t0));
    run.spec_of.push_back(i);
    ++sent;
  }
  run.window_s = ms_between(start, Clock::now()) / 1e3;
  svc.drain();
  run.wall_s = ms_between(start, Clock::now()) / 1e3;
  run.rounds = static_cast<int>((sent + specs.size() - 1) / specs.size());
  run.peak_rss_mb = peak_rss_mb();
  run.stats = svc.stats();
  run.outcomes = svc.outcomes();
  return run;
}

/// Open loop: one generator (this thread) sends each session at its due
/// time regardless of completions.
SimRun run_open(SimSetup& setup) {
  SimRun run;
  MonitoringService& svc = *setup.svc;
  const auto& specs = setup.inputs.specs;
  const auto& due = setup.inputs.due_s;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto due_at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at);
    const auto t0 = Clock::now();
    svc.submit(specs[i]);
    const auto t1 = Clock::now();
    run.submit_us.push_back(ms_between(t0, t1) * 1e3);
    run.lag_ms.push_back(ms_between(due_at, t0));
    run.sent_ms.push_back(ms_between(start, t0));
    run.spec_of.push_back(i);
  }
  run.window_s = ms_between(start, Clock::now()) / 1e3;
  const auto at_end = svc.stats();
  run.backlog_at_end = at_end.admitted - at_end.completed;
  svc.drain();
  run.rounds = 1;
  run.wall_s = ms_between(start, Clock::now()) / 1e3;
  run.peak_rss_mb = peak_rss_mb();
  run.stats = svc.stats();
  run.outcomes = svc.outcomes();
  return run;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Threads for the reference computations after the timed region.
constexpr int kCheckThreads = 4;

/// The repository's verdict contract: every reference verdict is in the
/// monitor's set, and every definite monitor verdict is in the reference
/// set. (The monitor's set may also hold '?' from views that end at an
/// undecided state.)
bool verdicts_match(const std::set<Verdict>& monitor,
                    const std::set<Verdict>& reference) {
  if (reference.empty()) return false;
  for (Verdict v : reference) {
    if (monitor.count(v) == 0) return false;
  }
  for (Verdict v : monitor) {
    if (v != Verdict::kUnknown && reference.count(v) == 0) return false;
  }
  return true;
}

/// Reference verdict set per spec: the lattice oracle for n=3, the
/// centralized monitor for n=5. Streaming sessions at n=5 are too long for
/// either (the centralized monitor's lattice overflows), so their reference
/// is the same session with the full history kept: no GC sweep, no floor
/// gossip, no history window. An entry that threw stays empty.
std::vector<std::set<Verdict>> references(const std::vector<SessionSpec>& specs,
                                          Report& report) {
  std::vector<std::set<Verdict>> refs(specs.size());
  std::vector<std::string> errors(specs.size());
  parallel_for(specs.size(), kCheckThreads, [&](std::size_t i) {
    const SessionSpec& spec = specs[i];
    try {
      decmon::MonitorSession session(decmon::paper::shared_property(
          spec.property, spec.num_processes,
          decmon::paper::make_registry(spec.num_processes)));
      const decmon::SystemTrace trace = make_trace(spec);
      if (spec.num_processes <= 3) {
        refs[i] = session.oracle(trace, spec.sim).verdicts;
      } else if (spec.options.streaming) {
        refs[i] = session.run(trace, spec.sim).verdict.verdicts;
      } else {
        refs[i] = session.run_centralized(trace, spec.sim).verdict.verdicts;
      }
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!errors[i].empty()) {
      report.notes.push_back("reference for spec " + std::to_string(i) +
                             " failed: " + errors[i]);
    }
  }
  return refs;
}

struct Counts {
  std::uint64_t events = 0, messages = 0, views = 0, hops = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const decmon::RunResult& r) {
  return {r.program_events, r.monitor_messages, r.total_global_views,
          r.verdict.aggregate.token_hops};
}

/// Check every outcome against its reference and, for repeated specs,
/// against the first run of the same spec. Returns per-outcome pass flags.
std::vector<char> verify(const SimInputs& in, const SimRun& run,
                         Report& report) {
  const auto refs = references(in.specs, report);
  std::vector<char> pass(run.outcomes.size(), 0);
  std::vector<const SessionOutcome*> first(in.specs.size(), nullptr);
  report.attempted = run.outcomes.size();
  if (run.outcomes.size() != run.spec_of.size()) {
    report.failed = run.spec_of.size();
    report.notes.push_back("service lost sessions");
    return pass;
  }
  for (std::size_t id = 0; id < run.outcomes.size(); ++id) {
    const SessionOutcome& o = run.outcomes[id];
    const std::size_t s = run.spec_of[id];
    const bool ok = o.ok && verdicts_match(o.result.verdict.verdicts, refs[s]);
    if (!first[s]) {
      first[s] = &o;
    } else if (counts_of(first[s]->result) != counts_of(o.result)) {
      report.spine_ok = false;
      report.notes.push_back("counts differ between rounds for spec " +
                             std::to_string(s));
    }
    pass[id] = ok;
    if (!ok) {
      ++report.failed;
      if (report.failed <= 3) {
        report.notes.push_back("session " + std::to_string(id) +
                               " failed: " + (o.ok ? "verdict mismatch"
                                                   : o.error));
      }
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Traced replay of the service-hosted sessions
// ---------------------------------------------------------------------------

struct Replay {
  std::vector<SpanRecord> spans;
  std::vector<Counts> counts;           ///< per spec, traced run
  std::vector<Counts> baseline_counts;  ///< per spec, untraced run
  std::vector<decmon::MonitorStats> monitor;  ///< per spec, aggregate
  std::vector<double> traced_ms;    ///< per spec, whole session
  std::vector<double> baseline_ms;  ///< per spec, whole session, untraced
  std::vector<double> tail_ms;      ///< run() end - last monitor hook end
  std::vector<double> hook_ms;      ///< outermost hooks per run
  int errors = 0;
};

/// Replays each spec on kShards threads through the same public calls a
/// shard worker makes, twice: once untraced and once with a span around
/// each call into a layer (the runtime and the monitor then talk through
/// forwarding wrappers). The two runs of a spec are back to back on one
/// thread, in alternating order, so their difference is the tracing
/// overhead.
Replay replay(const std::vector<SessionSpec>& specs) {
  Replay out;
  const std::size_t n = specs.size();
  out.counts.resize(n);
  out.baseline_counts.resize(n);
  out.monitor.resize(n);
  out.traced_ms.resize(n);
  out.baseline_ms.resize(n);
  out.tail_ms.resize(n);
  out.hook_ms.resize(n);
  std::vector<std::vector<SpanRecord>> logs(kShards);
  std::atomic<std::size_t> next{0};
  std::atomic<int> errors{0};
  auto worker = [&](int t) {
    std::map<int, std::shared_ptr<decmon::MonitorSession>> catalog;
    auto run_one = [&](std::size_t i, bool traced) {
      const SessionSpec& spec = specs[i];
      SessionSpans spans(i, traced ? &logs[static_cast<std::size_t>(t)]
                                   : nullptr);
      const auto t0 = Clock::now();
      const int root = spans.open("session", -1);
      decmon::SystemTrace trace;
      {
        Span s(spans, "distributed.trace.generate", root);
        trace = make_trace(spec);
      }
      const int key = static_cast<int>(spec.property) * 64 +
                      spec.num_processes;
      auto it = catalog.find(key);
      if (it == catalog.end()) {
        Span s(spans, "core.admit", root);
        it = catalog
                 .emplace(key, std::make_shared<decmon::MonitorSession>(
                                   decmon::paper::shared_property(
                                       spec.property, spec.num_processes,
                                       decmon::paper::make_registry(
                                           spec.num_processes))))
                 .first;
      }
      const decmon::MonitorSession& session = *it->second;
      SessionTrace calls;
      std::optional<decmon::SimRuntime> runtime;
      {
        Span s(spans, "distributed.runtime.construct", root);
        runtime.emplace(std::move(trace), &session.registry(), spec.sim);
      }
      std::optional<TracedNetwork> net;
      decmon::MonitorNetwork* monitor_net = &*runtime;
      if (traced) {
        net.emplace(&*runtime, &calls, Op::kRuntimeSend);
        monitor_net = &*net;
      }
      std::optional<decmon::DecentralizedMonitor> monitors;
      {
        Span s(spans, "monitor.construct", root);
        monitors.emplace(std::shared_ptr<const decmon::CompiledProperty>(
                             it->second, &session.property()),
                         monitor_net,
                         decmon::initial_letters_of(session.registry(),
                                                    runtime->initial_states()),
                         spec.options);
      }
      std::optional<TracedHooks> hooks;
      if (traced) {
        hooks.emplace(&*monitors, &calls, Op::kMonitorEvent,
                      Op::kMonitorMessage, Op::kMonitorTermination);
        runtime->set_hooks(&*hooks);
      } else {
        runtime->set_hooks(&*monitors);
      }
      const int run_span = spans.open("distributed.runtime.run", root);
      runtime->run();
      spans.close(run_span);
      const std::int64_t run_end = now_ns();
      spans.aggregate(run_span, calls, calls.outer_ns());
      decmon::SystemVerdict verdict;
      {
        Span s(spans, "monitor.result", root);
        verdict = monitors->result();
      }
      spans.close(root);
      const double ms = ms_between(t0, Clock::now());
      const Counts counts{runtime->program_events(),
                          runtime->monitor_messages_sent(),
                          verdict.aggregate.global_views_created,
                          verdict.aggregate.token_hops};
      if (!verdict.all_finished) ++errors;
      if (!traced) {
        out.baseline_ms[i] = ms;
        out.baseline_counts[i] = counts;
        return;
      }
      out.traced_ms[i] = ms;
      out.counts[i] = counts;
      out.monitor[i] = verdict.aggregate;
      out.tail_ms[i] =
          static_cast<double>(run_end - calls.last_monitor_end_ns()) / 1e6;
      out.hook_ms[i] = static_cast<double>(calls.outer_ns()) / 1e6;
    };
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        run_one(i, i % 2 == 0);
        run_one(i, i % 2 != 0);
      } catch (const std::exception&) {
        ++errors;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kShards; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  for (auto& log : logs) {
    out.spans.insert(out.spans.end(), log.begin(), log.end());
  }
  out.errors = errors;
  return out;
}

struct NameTotals {
  std::uint64_t spans = 0, calls = 0;
  double total_ns = 0.0, self_ns = 0.0;
};

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, NameTotals> m;
  for (const SpanRecord& r : spans) {
    NameTotals& t = m[r.name];
    t.spans += 1;
    t.calls += r.count;
    t.total_ns += static_cast<double>(r.total_ns);
    t.self_ns += static_cast<double>(r.self_ns());
  }
  return m;
}

double self_per_call_ns(const std::map<std::string, NameTotals>& m,
                        const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0
                       : ratio(it->second.self_ns,
                               static_cast<double>(it->second.calls));
}
double self_sum_ns(const std::map<std::string, NameTotals>& m,
                   const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second.self_ns;
}

/// Per-layer counts of the monitor, from the per-session MonitorStats.
void put_monitor_counts(Report& report,
                        const std::vector<decmon::MonitorStats>& stats,
                        const std::vector<std::uint64_t>& events,
                        const std::vector<std::uint64_t>& messages) {
  double ev = 0, msgs = 0, hops = 0, tokens = 0, views = 0, merged = 0,
         peak_views = 0, delayed = 0, frames = 0, bytes = 0, sweeps = 0,
         trimmed = 0, floors = 0, peak_history = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const decmon::MonitorStats& s = stats[i];
    ev += static_cast<double>(events[i]);
    msgs += static_cast<double>(messages[i]);
    hops += static_cast<double>(s.token_hops);
    tokens += static_cast<double>(s.tokens_created);
    views += static_cast<double>(s.global_views_created);
    merged += static_cast<double>(s.global_views_merged);
    peak_views += static_cast<double>(s.peak_global_views);
    delayed += s.average_delayed_events();
    frames += static_cast<double>(s.frames_sent);
    bytes += static_cast<double>(s.bytes_sent);
    sweeps += static_cast<double>(s.gc_sweeps);
    trimmed += static_cast<double>(s.history_trimmed);
    floors += static_cast<double>(s.floor_messages);
    peak_history = std::max(peak_history, static_cast<double>(s.peak_history));
  }
  const double k = static_cast<double>(stats.size());
  report.layer("monitor.token_hops_per_event", ratio(hops, ev), "count");
  report.layer("monitor.hops_per_token", ratio(hops, tokens), "count");
  report.layer("monitor.views_per_event", ratio(views, ev), "count");
  report.layer("monitor.merged_per_view", ratio(merged, views), "count");
  report.layer("monitor.peak_views", ratio(peak_views, k), "count");
  report.layer("monitor.delayed_events_avg", ratio(delayed, k), "count");
  report.layer("monitor.frames_per_message", ratio(frames, msgs), "count");
  report.layer("monitor.bytes_per_frame", ratio(bytes, frames), "B");
  report.layer("monitor.gc_sweeps_per_event", ratio(sweeps, ev), "count");
  report.layer("monitor.gc_trimmed_per_sweep", ratio(trimmed, sweeps), "count");
  report.layer("monitor.gc_peak_history", peak_history, "count");
  report.layer("monitor.floor_msgs_per_event", ratio(floors, ev), "count");
}

void put_service_layers(Report& report, const SimRun& run, bool open_loop) {
  const auto& st = run.stats;
  report.layer("client.gen_lag_p99_ms", quantile(run.lag_ms, 0.99), "ms");
  report.layer("client.submit_us_p99", quantile(run.submit_us, 0.99), "us");
  report.layer("client.completed_per_offered",
             open_loop ? ratio(static_cast<double>(run.outcomes.size()) -
                                   static_cast<double>(run.backlog_at_end),
                               static_cast<double>(run.outcomes.size()))
                       : 1.0,
             "ratio");
  report.layer("service.queue_p50_ms",
             static_cast<double>(st.queue_ns.quantile(0.50)) / 1e6, "ms");
  report.layer("service.queue_p99_ms",
             static_cast<double>(st.queue_ns.quantile(0.99)) / 1e6, "ms");
  double busy = 0.0, max_busy = 0.0;
  for (double b : st.per_shard_busy_ms) {
    busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double shards = static_cast<double>(st.per_shard_busy_ms.size());
  report.layer("service.busy_share", ratio(busy, shards * run.wall_s * 1e3),
               "ratio");
  report.layer("service.shard_skew", ratio(max_busy, busy / shards), "ratio");
  report.layer("service.stolen_per_session",
               ratio(static_cast<double>(st.stolen),
                     static_cast<double>(st.completed)),
               "ratio");
}

void put_admission(Report& report, const AdmitStats& a) {
  report.layer("core.admit_us", quantile(a.admit_us, 0.5), "us");
  report.layer("core.aot_hits", static_cast<double>(a.aot_hits), "count");
  report.layer("core.synthesis_misses", static_cast<double>(a.synthesis_misses),
             "count");
}

void put_socket_zeros(Report& report) {
  for (const char* name :
       {"distributed.socket.wire_frames", "distributed.socket.coalesced_frames",
        "distributed.socket.partial_writes", "distributed.channel.data_sent",
        "distributed.channel.retransmissions"}) {
    report.layer(name, 0.0, "count");
  }
  report.layer("distributed.socket.wire_bytes", 0.0, "B");
  report.layer("distributed.channel.acks_per_data", 0.0, "ratio");
  report.layer("distributed.channel.self_share_pct", 0.0, "%");
}

void write_span_file(const Options& opt, const std::vector<SpanRecord>& spans,
                     Report& report) {
  if (opt.out_dir.empty()) return;
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".tsv";
  if (write_spans(path, spans)) {
    report.notes.push_back("spans written to " + path);
  } else {
    report.notes.push_back("could not write " + path);
  }
}

/// Shared body of the three service-hosted workloads.
Report run_sim(const Options& opt, const std::function<SimInputs()>& make,
               bool open_loop) {
  Report report;
  SimSetup setup = set_up_sim(make);
  SimRun run = open_loop ? run_open(setup) : run_closed(setup, opt.seconds);
  setup.svc.reset();  // joins the shard workers
  const std::vector<char> pass = verify(setup.inputs, run, report);

  if (open_loop && run.backlog_at_end > 8 * kShards) {
    report.valid = false;
    report.notes.push_back("open loop invalid: backlog of " +
                           std::to_string(run.backlog_at_end) +
                           " sessions when the last arrival was sent");
  }

  // End-to-end metrics. Throughput is taken over the sending window: a
  // session still running when sending stopped counts in proportion to the
  // part of its execution inside the window, so the drain at the end adds
  // no idle tail.
  std::vector<double> session_ms, drain_ms;
  double events = 0.0;
  const double window_ms = run.window_s * 1e3;
  for (std::size_t id = 0; id < run.outcomes.size(); ++id) {
    const SessionOutcome& o = run.outcomes[id];
    session_ms.push_back(run.lag_ms[id] + o.latency_ms);
    drain_ms.push_back(o.latency_ms - o.queue_ms);
    const double begin = run.sent_ms[id] + o.queue_ms;
    const double end = run.sent_ms[id] + o.latency_ms;
    const double inside = std::clamp(window_ms, begin, end) - begin;
    if (pass[id] && end > begin) {
      events += static_cast<double>(o.result.program_events) * inside /
                (end - begin);
    }
  }
  // Deterministic counts over one run of each distinct spec.
  double ev = 0, msgs = 0, bytes = 0;
  std::vector<double> lag_s;
  const std::size_t distinct = setup.inputs.specs.size();
  for (std::size_t id = 0; id < std::min(distinct, run.outcomes.size()); ++id) {
    const decmon::RunResult& r = run.outcomes[id].result;
    ev += static_cast<double>(r.program_events);
    msgs += static_cast<double>(r.monitor_messages);
    bytes += static_cast<double>(r.verdict.aggregate.bytes_sent);
    lag_s.push_back(std::max(0.0, r.monitor_end - r.program_end));
  }
  report.put("setup_s", setup.setup_s, "s");
  report.put("events_per_s", ratio(events, run.window_s), "events/s");
  report.put("session_p50_ms", quantile(session_ms, 0.50), "ms");
  report.put("session_p90_ms", quantile(session_ms, 0.90), "ms");
  report.put("drain_p50_ms", quantile(drain_ms, 0.50), "ms");
  report.put("drain_p90_ms", quantile(drain_ms, 0.90), "ms");
  report.put("msgs_per_event", ratio(msgs, ev), "count");
  report.put("wire_bytes_per_event", ratio(bytes, ev), "B");
  report.put("verdict_lag_s", quantile(lag_s, 0.5), "s");
  report.put("peak_rss_mb", run.peak_rss_mb, "MB");
  report.notes.push_back("rounds=" + std::to_string(run.rounds) +
                         " sessions=" + std::to_string(run.outcomes.size()) +
                         " wall_s=" + std::to_string(run.wall_s));
  if (!opt.trace) return report;

  // Traced phase: each distinct spec replayed untraced and traced.
  const Replay traced = replay(setup.inputs.specs);
  if (traced.errors > 0) {
    report.failed += static_cast<std::uint64_t>(traced.errors);
    report.notes.push_back("replay: " + std::to_string(traced.errors) +
                           " sessions failed");
  }
  std::vector<std::uint64_t> events_of(distinct), messages_of(distinct);
  for (std::size_t s = 0; s < distinct && s < run.outcomes.size(); ++s) {
    const Counts untraced = counts_of(run.outcomes[s].result);
    if (untraced != traced.counts[s] ||
        untraced != traced.baseline_counts[s]) {
      report.spine_ok = false;
      report.notes.push_back("replayed counts differ for spec " +
                             std::to_string(s));
    }
    events_of[s] = traced.counts[s].events;
    messages_of[s] = traced.counts[s].messages;
  }
  const auto by_name = totals_by_name(traced.spans);
  const double k = static_cast<double>(distinct);
  report.layer("client.session_p99_ms", quantile(session_ms, 0.99), "ms");
  put_service_layers(report, run, open_loop);
  put_admission(report, setup.admission);
  report.layer("distributed.trace.gen_us_per_session",
             self_sum_ns(by_name, "distributed.trace.generate") / k / 1e3,
             "us");
  report.layer("distributed.runtime.construct_ms",
             self_sum_ns(by_name, "distributed.runtime.construct") / k / 1e6,
             "ms");
  report.layer("distributed.runtime.self_us_per_session",
             self_sum_ns(by_name, "distributed.runtime.run") / k / 1e3, "us");
  report.layer("distributed.runtime.send_ns",
             self_per_call_ns(by_name, op_name(Op::kRuntimeSend)), "ns");
  report.layer("distributed.runtime.hook_ms", mean(traced.hook_ms), "ms");
  report.layer("distributed.runtime.quiescence_tail_ms", mean(traced.tail_ms),
             "ms");
  report.layer("monitor.event_ns",
             self_per_call_ns(by_name, op_name(Op::kMonitorEvent)), "ns");
  report.layer("monitor.message_ns",
             self_per_call_ns(by_name, op_name(Op::kMonitorMessage)), "ns");
  put_monitor_counts(report, traced.monitor, events_of, messages_of);
  put_socket_zeros(report);
  const auto root = by_name.find("session");
  report.layer("trace.unattributed_pct",
             root == by_name.end()
                 ? 0.0
                 : 100.0 * ratio(root->second.self_ns, root->second.total_ns),
             "%");
  report.layer("trace_overhead_pct",
               100.0 * (ratio(mean(traced.traced_ms),
                              mean(traced.baseline_ms)) -
                        1.0),
               "%");
  write_span_file(opt, traced.spans, report);
  return report;
}

// ---------------------------------------------------------------------------
// Socket workload: SocketRuntime -> ReliableChannel -> DecentralizedMonitor
// ---------------------------------------------------------------------------

constexpr int kSocketProcs = 3;
/// Internal events per process. Shorter than the paper's 25: with
/// time_scale 0 the processes barely order each other, and at 25 events the
/// oracle's lattice reaches ~2M cuts (seconds and ~450 MB per check); at 8
/// it stays near 50k cuts.
constexpr int kSocketInternalEvents = 8;

struct SocketDrain {
  double due_lag_ms = 0.0;   ///< previous drain end -> construction start
  double handoff_us = 0.0;   ///< construction start -> run() call
  double construct_ms = 0.0; ///< SocketRuntime constructor (mesh connect)
  double drain_ms = 0.0;     ///< construction start -> run() return
  bool finished = false;
  std::string error;
  std::set<Verdict> verdicts;
  std::vector<std::vector<decmon::Event>> history;
  decmon::MonitorStats monitor;
  decmon::ChannelStats channel;
  std::uint64_t events = 0, wire_frames = 0, wire_bytes = 0, coalesced = 0,
                partial_writes = 0;
  double verdict_lag_s = 0.0;
  // Traced drains only.
  double hook_ms = 0.0, tail_ms = 0.0;
};

/// Messages the monitors themselves sent (before the channel wraps them).
std::uint64_t monitor_sends(const decmon::MonitorStats& s) {
  return s.token_messages_sent + s.termination_messages + s.floor_messages;
}

/// One execution of the stack on a fresh-seed trace. With `traced`, every
/// call into a layer goes through a forwarding wrapper and spans are
/// recorded into `spans`.
SocketDrain socket_drain(const decmon::SharedProperty& artifact,
                         std::uint64_t trace_seed, int internal_events,
                         Clock::time_point due, SessionSpans& spans,
                         bool traced) {
  SocketDrain d;
  const int root = spans.open("session", -1);
  const int gen_span = spans.open("distributed.trace.generate", root);
  decmon::SystemTrace trace = decmon::generate_trace(
      decmon::paper::experiment_params(Property::kD, kSocketProcs, trace_seed,
                                       /*comm_mu=*/1.5, /*comm_enabled=*/true,
                                       internal_events));
  decmon::force_final_all_true(trace);
  spans.close(gen_span);
  const auto t0 = Clock::now();
  d.due_lag_ms = ms_between(due, t0);

  decmon::SocketConfig config;
  config.time_scale = 0.0;
  config.sndbuf = 32 * 1024;
  config.rcvbuf = 32 * 1024;
  decmon::ReliableChannelConfig channel_config;
  channel_config.rto = 0.05;

  SessionTrace calls(/*keep_intervals=*/true);
  std::optional<decmon::SocketRuntime> runtime;
  {
    Span s(spans, "distributed.runtime.construct", root);
    runtime.emplace(std::move(trace), &artifact->registry(), config);
  }
  d.construct_ms = ms_between(t0, Clock::now());
  std::optional<TracedNetwork> runtime_net;
  decmon::MonitorNetwork* below_channel = &*runtime;
  if (traced) {
    runtime_net.emplace(&*runtime, &calls, Op::kRuntimeSend);
    below_channel = &*runtime_net;
  }
  decmon::ReliableChannel channel(below_channel, kSocketProcs, channel_config);
  std::optional<TracedNetwork> channel_net;
  decmon::MonitorNetwork* monitor_net = &channel;
  if (traced) {
    channel_net.emplace(&channel, &calls, Op::kChannelSend);
    monitor_net = &*channel_net;
  }
  std::optional<decmon::DecentralizedMonitor> monitors;
  {
    Span s(spans, "monitor.construct", root);
    monitors.emplace(decmon::property_handle(artifact), monitor_net,
                     decmon::initial_letters_of(artifact->registry(),
                                                runtime->initial_states()));
  }
  std::optional<TracedHooks> monitor_hooks, channel_hooks;
  if (traced) {
    monitor_hooks.emplace(&*monitors, &calls, Op::kMonitorEvent,
                          Op::kMonitorMessage, Op::kMonitorTermination);
    channel.set_hooks(&*monitor_hooks);
    channel_hooks.emplace(&channel, &calls, Op::kChannelEvent,
                          Op::kChannelMessage, Op::kChannelTermination);
    runtime->set_hooks(&*channel_hooks);
  } else {
    channel.set_hooks(&*monitors);
    runtime->set_hooks(&channel);
  }
  d.handoff_us = ms_between(t0, Clock::now()) * 1e3;
  const int run_span = spans.open("distributed.runtime.run", root);
  try {
    runtime->run();
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  const std::int64_t run_end = now_ns();
  const double returned_at = runtime->now();
  d.drain_ms = ms_between(t0, Clock::now());
  spans.close(run_span);
  if (traced) {
    spans.aggregate(run_span, calls, calls.outer_covered_ns());
    d.hook_ms = static_cast<double>(calls.outer_ns()) / 1e6;
    d.tail_ms =
        static_cast<double>(run_end - calls.last_monitor_end_ns()) / 1e6;
  }
  {
    Span s(spans, "monitor.result", root);
    const decmon::SystemVerdict v = monitors->result();
    d.finished = v.all_finished && d.error.empty();
    d.verdicts = v.verdicts;
    d.monitor = v.aggregate;
  }
  spans.close(root);
  d.channel = channel.total_stats();
  d.history = runtime->history();
  d.events = runtime->program_events();
  d.wire_frames = runtime->wire_frames();
  d.wire_bytes = runtime->wire_bytes();
  d.coalesced = runtime->coalesced_frames();
  d.partial_writes = runtime->partial_writes();
  // The verdict set is readable once run() returns, so on a real runtime
  // the detection delay runs from the last program event to that return.
  double program_end = 0.0;
  for (const auto& proc : d.history) {
    for (const decmon::Event& e : proc) program_end = std::max(program_end, e.time);
  }
  d.verdict_lag_s = std::max(0.0, returned_at - program_end);
  return d;
}

/// Drains back to back until `seconds` have passed (at least one).
std::vector<SocketDrain> socket_loop(const decmon::SharedProperty& artifact,
                                     decmon::SplitMix64& seeds, double seconds,
                                     std::vector<SpanRecord>* log,
                                     double* wall_s) {
  std::vector<SocketDrain> drains;
  const auto start = Clock::now();
  auto due = start;
  do {
    SessionSpans spans(drains.size(), log);
    drains.push_back(socket_drain(artifact, seeds.next(),
                                  kSocketInternalEvents, due, spans,
                                  log != nullptr));
    due = Clock::now();
  } while (ms_between(start, due) / 1e3 < seconds);
  *wall_s = ms_between(start, due) / 1e3;
  return drains;
}

/// Each drain against the lattice oracle over its recorded history.
void verify_socket(const decmon::SharedProperty& artifact,
                   const std::vector<SocketDrain>& drains,
                   std::vector<char>& pass, Report& report) {
  pass.assign(drains.size(), 0);
  std::vector<std::string> errors(drains.size());
  parallel_for(drains.size(), kCheckThreads, [&](std::size_t i) {
    const SocketDrain& d = drains[i];
    if (!d.finished) return;
    try {
      pass[i] = verdicts_match(
          d.verdicts, decmon::oracle_evaluate(decmon::Computation(d.history),
                                              artifact->automaton())
                          .verdicts);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  report.attempted += drains.size();
  for (std::size_t i = 0; i < drains.size(); ++i) {
    if (pass[i]) continue;
    ++report.failed;
    if (report.failed <= 3) {
      report.notes.push_back(
          "drain " + std::to_string(i) + " failed: " +
          (!drains[i].finished ? "did not drain " + drains[i].error
           : errors[i].empty() ? std::string("verdict mismatch")
                               : "oracle failed: " + errors[i]));
    }
  }
}

}  // namespace

Report run_walk(const Options& opt) {
  return run_sim(opt, [&] { return walk_inputs(opt.seed); }, false);
}

Report run_stream(const Options& opt) {
  return run_sim(opt, [&] { return stream_inputs(opt.seed); }, false);
}

Report run_fleet(const Options& opt) {
  return run_sim(opt, [&] { return fleet_inputs(opt.seed, opt.seconds); },
                 true);
}

Report run_socket(const Options& opt) {
  Report report;
  // Set-up: draw the seeds, admit the property, warm the stack up.
  std::vector<double> samples;
  AdmitStats admission;
  decmon::SharedProperty artifact;
  decmon::SplitMix64 seeds(0);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    seeds = decmon::SplitMix64(opt.seed);
    admission = admit({{Property::kD, kSocketProcs}});
    artifact = decmon::paper::shared_property(
        Property::kD, kSocketProcs, decmon::paper::make_registry(kSocketProcs));
    // Warm-up drain on a short trace: threads, sockets and the channel's
    // timers are exercised once before the first timed drain.
    SessionSpans none(0, nullptr);
    const SocketDrain warm =
        socket_drain(artifact, /*trace_seed=*/1, /*internal_events=*/2,
                     Clock::now(), none, /*traced=*/false);
    if (!warm.finished) report.notes.push_back("warm-up drain failed");
    samples.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  double wall_s = 0.0;
  const std::vector<SocketDrain> drains =
      socket_loop(artifact, seeds, opt.seconds, nullptr, &wall_s);
  const double rss = peak_rss_mb();
  std::vector<char> pass;
  verify_socket(artifact, drains, pass, report);

  std::vector<double> session_ms, drain_ms, lag_ms, handoff_us, verdict_lag;
  double events = 0, all_events = 0, msgs = 0, bytes = 0, busy_ms = 0;
  for (std::size_t i = 0; i < drains.size(); ++i) {
    const SocketDrain& d = drains[i];
    session_ms.push_back(d.due_lag_ms + d.drain_ms);
    drain_ms.push_back(d.drain_ms);
    lag_ms.push_back(d.due_lag_ms);
    handoff_us.push_back(d.handoff_us);
    busy_ms += d.drain_ms;
    if (pass[i]) events += static_cast<double>(d.events);
    all_events += static_cast<double>(d.events);
    msgs += static_cast<double>(monitor_sends(d.monitor));
    bytes += static_cast<double>(d.monitor.bytes_sent);
    verdict_lag.push_back(d.verdict_lag_s);
  }
  report.put("setup_s", quantile(samples, 0.5), "s");
  report.put("events_per_s", ratio(events, wall_s), "events/s");
  report.put("session_p50_ms", quantile(session_ms, 0.50), "ms");
  report.put("session_p90_ms", quantile(session_ms, 0.90), "ms");
  report.put("drain_p50_ms", quantile(drain_ms, 0.50), "ms");
  report.put("drain_p90_ms", quantile(drain_ms, 0.90), "ms");
  report.put("msgs_per_event", ratio(msgs, all_events), "count");
  report.put("wire_bytes_per_event", ratio(bytes, all_events), "B");
  report.put("verdict_lag_s", quantile(verdict_lag, 0.5), "s");
  report.put("peak_rss_mb", rss, "MB");
  report.notes.push_back("drains=" + std::to_string(drains.size()) +
                         " wall_s=" + std::to_string(wall_s));
  if (!opt.trace) return report;

  // Traced phase: half as long again, same seed stream continued.
  std::vector<SpanRecord> spans;
  double traced_wall_s = 0.0;
  const std::vector<SocketDrain> traced = socket_loop(
      artifact, seeds, std::max(1.0, opt.seconds / 2), &spans, &traced_wall_s);
  std::vector<char> traced_pass;
  verify_socket(artifact, traced, traced_pass, report);

  std::vector<double> traced_drain_ms, construct_ms, hook_ms, tail_ms;
  std::vector<decmon::MonitorStats> monitor;
  std::vector<std::uint64_t> ev_of, msgs_of;
  double frames = 0, wire_bytes = 0, coalesced = 0, partial = 0, data = 0,
         acks = 0, retx = 0;
  for (const SocketDrain& d : traced) {
    traced_drain_ms.push_back(d.drain_ms);
    construct_ms.push_back(d.construct_ms);
    hook_ms.push_back(d.hook_ms);
    tail_ms.push_back(d.tail_ms);
    monitor.push_back(d.monitor);
    ev_of.push_back(d.events);
    msgs_of.push_back(monitor_sends(d.monitor));
    frames += static_cast<double>(d.wire_frames);
    wire_bytes += static_cast<double>(d.wire_bytes);
    coalesced += static_cast<double>(d.coalesced);
    partial += static_cast<double>(d.partial_writes);
    data += static_cast<double>(d.channel.data_sent);
    acks += static_cast<double>(d.channel.acks_sent);
    retx += static_cast<double>(d.channel.retransmissions);
  }
  const double kt = static_cast<double>(traced.size());
  const auto by_name = totals_by_name(spans);
  report.layer("client.session_p99_ms", quantile(session_ms, 0.99), "ms");
  report.layer("client.gen_lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  report.layer("client.submit_us_p99", quantile(handoff_us, 0.99), "us");
  report.layer("client.completed_per_offered", 1.0, "ratio");
  // No service here: the closed loop's queue is the gap between one drain
  // ending and the next starting.
  report.layer("service.queue_p50_ms", quantile(lag_ms, 0.50), "ms");
  report.layer("service.queue_p99_ms", quantile(lag_ms, 0.99), "ms");
  report.layer("service.busy_share", ratio(busy_ms, wall_s * 1e3), "ratio");
  report.layer("service.shard_skew", 1.0, "ratio");
  report.layer("service.stolen_per_session", 0.0, "ratio");
  put_admission(report, admission);
  report.layer("distributed.trace.gen_us_per_session",
               self_sum_ns(by_name, "distributed.trace.generate") / kt / 1e3,
               "us");
  report.layer("distributed.runtime.construct_ms", mean(construct_ms), "ms");
  report.layer("distributed.runtime.self_us_per_session",
               self_sum_ns(by_name, "distributed.runtime.run") / kt / 1e3,
               "us");
  report.layer("distributed.runtime.send_ns",
               self_per_call_ns(by_name, op_name(Op::kRuntimeSend)), "ns");
  report.layer("distributed.runtime.hook_ms", mean(hook_ms), "ms");
  report.layer("distributed.runtime.quiescence_tail_ms", mean(tail_ms), "ms");
  report.layer("monitor.event_ns",
               self_per_call_ns(by_name, op_name(Op::kMonitorEvent)), "ns");
  report.layer("monitor.message_ns",
               self_per_call_ns(by_name, op_name(Op::kMonitorMessage)), "ns");
  put_monitor_counts(report, monitor, ev_of, msgs_of);
  report.layer("distributed.socket.wire_frames", frames / kt, "count");
  report.layer("distributed.socket.wire_bytes", wire_bytes / kt, "B");
  report.layer("distributed.socket.coalesced_frames", coalesced / kt, "count");
  report.layer("distributed.socket.partial_writes", partial / kt, "count");
  report.layer("distributed.channel.data_sent", data / kt, "count");
  report.layer("distributed.channel.acks_per_data", ratio(acks, data), "ratio");
  report.layer("distributed.channel.retransmissions", retx / kt, "count");
  double channel_self = 0.0;
  for (Op op : {Op::kChannelEvent, Op::kChannelMessage,
                Op::kChannelTermination, Op::kChannelSend}) {
    channel_self += self_sum_ns(by_name, op_name(op));
  }
  const auto root = by_name.find("session");
  const double root_ns = root == by_name.end() ? 0.0 : root->second.total_ns;
  report.layer("distributed.channel.self_share_pct",
               100.0 * ratio(channel_self, root_ns), "%");
  report.layer("trace.unattributed_pct",
               root == by_name.end()
                   ? 0.0
                   : 100.0 * ratio(root->second.self_ns, root_ns),
               "%");
  report.layer("trace_overhead_pct",
               100.0 * (ratio(quantile(traced_drain_ms, 0.5),
                              quantile(drain_ms, 0.5)) -
                        1.0),
               "%");
  write_span_file(opt, spans, report);
  return report;
}

}  // namespace perfbench

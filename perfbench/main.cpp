// perfbench: the repository benchmark program. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload walk|fleet|stream|socket --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints each metric by name with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced run. Exit status: 0 when every verdict
// matched its reference and the run was valid, 1 otherwise, 2 on usage
// errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "walk|fleet|stream|socket --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               msg);
  std::exit(2);
}

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The metrics every workload reports, in output order; BENCHMARK.json
// declares the same names and units.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"events_per_s", "events/s"},
    {"session_p50_ms", "ms"},
    {"session_p90_ms", "ms"},
    {"drain_p50_ms", "ms"},
    {"drain_p90_ms", "ms"},
    {"msgs_per_event", "count"},
    {"wire_bytes_per_event", "B"},
    {"verdict_lag_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"client.session_p99_ms", "ms"},
    {"client.gen_lag_p99_ms", "ms"},
    {"client.submit_us_p99", "us"},
    {"client.completed_per_offered", "ratio"},
    {"service.queue_p50_ms", "ms"},
    {"service.queue_p99_ms", "ms"},
    {"service.busy_share", "ratio"},
    {"service.shard_skew", "ratio"},
    {"service.stolen_per_session", "ratio"},
    {"core.admit_us", "us"},
    {"core.aot_hits", "count"},
    {"core.synthesis_misses", "count"},
    {"distributed.trace.gen_us_per_session", "us"},
    {"distributed.runtime.construct_ms", "ms"},
    {"distributed.runtime.self_us_per_session", "us"},
    {"distributed.runtime.send_ns", "ns"},
    {"distributed.runtime.hook_ms", "ms"},
    {"distributed.runtime.quiescence_tail_ms", "ms"},
    {"monitor.event_ns", "ns"},
    {"monitor.message_ns", "ns"},
    {"monitor.token_hops_per_event", "count"},
    {"monitor.hops_per_token", "count"},
    {"monitor.views_per_event", "count"},
    {"monitor.merged_per_view", "count"},
    {"monitor.peak_views", "count"},
    {"monitor.delayed_events_avg", "count"},
    {"monitor.frames_per_message", "count"},
    {"monitor.bytes_per_frame", "B"},
    {"monitor.gc_sweeps_per_event", "count"},
    {"monitor.gc_trimmed_per_sweep", "count"},
    {"monitor.gc_peak_history", "count"},
    {"monitor.floor_msgs_per_event", "count"},
    {"distributed.socket.wire_frames", "count"},
    {"distributed.socket.wire_bytes", "B"},
    {"distributed.socket.coalesced_frames", "count"},
    {"distributed.socket.partial_writes", "count"},
    {"distributed.channel.data_sent", "count"},
    {"distributed.channel.acks_per_data", "ratio"},
    {"distributed.channel.retransmissions", "count"},
    {"distributed.channel.self_share_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

/// Reorder `metrics` to match `decls`; exits if a metric is missing,
/// repeated or carries another unit (a defect of the benchmark itself).
template <std::size_t N>
std::vector<Metric> canonical(const std::vector<Metric>& metrics,
                              const MetricDecl (&decls)[N]) {
  std::vector<Metric> out;
  for (const MetricDecl& d : decls) {
    int found = 0;
    for (const Metric& m : metrics) {
      if (m.name != d.name) continue;
      ++found;
      if (m.unit != d.unit) found = -1000;
      out.push_back(m);
    }
    if (found != 1) {
      std::fprintf(stderr, "perfbench: metric %s reported wrongly\n", d.name);
      std::exit(3);
    }
  }
  if (out.size() != metrics.size()) {
    std::fprintf(stderr, "perfbench: undeclared metric reported\n");
    std::exit(3);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (std::strcmp(a, "--workload") == 0) {
      opt.workload = v;
      have_workload = true;
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::atof(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(a, "--out-dir") == 0) {
      opt.out_dir = v;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  Report report;
  if (opt.workload == "walk") {
    report = perfbench::run_walk(opt);
  } else if (opt.workload == "fleet") {
    report = perfbench::run_fleet(opt);
  } else if (opt.workload == "stream") {
    report = perfbench::run_stream(opt);
  } else if (opt.workload == "socket") {
    report = perfbench::run_socket(opt);
  } else {
    usage("unknown workload");
  }

  report.metrics = canonical(report.metrics, kEndToEnd);
  if (opt.trace) report.layers = canonical(report.layers, kPerLayer);

  const std::string env =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"compiler\": \"" +
      json_escape(__VERSION__) + "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"workload\": \"" + opt.workload +
      "\", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + std::to_string(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
  std::printf("env %s\n", env.c_str());
  for (const std::string& note : report.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("e2e   %-42s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.layers) {
    std::printf("layer %-42s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_ratio =
      report.attempted ? static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 1.0;
  std::printf("e2e   %-42s %14.6g ratio\n", "failed_ratio", failed_ratio);
  if (!report.valid) std::printf("note run INVALID\n");
  if (!report.spine_ok) std::printf("note exact-count spine BROKEN\n");

  const bool correct = report.correct() && report.attempted > 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": " +
      metrics_json(opt.trace ? report.layers : report.metrics) + "}";
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/result-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"env\": " << env << ", \"end_to_end\": "
        << metrics_json(report.metrics)
        << ", \"per_layer\": " << metrics_json(report.layers)
        << ", \"failed_ratio\": " << failed_ratio << ", \"result\": " << result
        << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

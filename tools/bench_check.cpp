// bench_check: compare a freshly produced bench_harness JSON against the
// committed BENCH_core.json and fail on regressions. Used by the CI
// bench-regression job:
//
//   bench_harness --quick --out bench_quick.json
//   bench_check BENCH_core.json bench_quick.json
//
// One rule, by row kind:
//
//   exact counts       every row not named below: the Chapter-5 cell counts,
//                      the simulator recovery counters, the stream GC
//                      counts, the trace-determined socket counts and the
//                      seeded kill counts. They must equal the baseline on
//                      every machine; a drift means the monitors' behaviour
//                      changed and the baseline must be re-recorded
//                      deliberately.
//   within-run floors  micro.BM_PropertyAdmission.aot_vs_cold.speedup >= 100
//                      and .aot_vs_copy.median_ratio < 1, checked on the
//                      candidate alone on every machine (both are ratios of
//                      timings taken in the same run).
//   socket counters    socket.* and recovery.socket.* traffic (wire bytes,
//                      frames, coalesced frames, reconnects,
//                      retransmissions, drops): kernel scheduling decides
//                      them, so they stay within kSocketBand of the baseline
//                      plus an absolute slack.
//   time rows          .ns, .ms and .wall_ms: within kTimeBand of the
//                      baseline when both files carry the same "box" (the
//                      recording machine stamped by bench_harness); on any
//                      other box they are listed, not failed, because a
//                      wall-clock number only means something next to the
//                      machine it came from.
//
// Quick runs cover a sub-grid, so a quick candidate may lack baseline rows;
// a full candidate must carry every baseline row. Rows only the candidate
// has are ignored.
//
//   bench_check <baseline.json> <candidate.json>
//
// Exit status: 0 all compared metrics pass, 1 any failure, 2 usage/IO.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// Six further full runs on the box that recorded BENCH_core.json reached
/// at most 2.35x of its time rows (a socket cell); the band leaves margin
/// above that. The absolute slack keeps sub-millisecond rows off timer noise.
constexpr double kTimeBand = 3.0;
constexpr double kTimeSlack = 0.5;
constexpr double kSocketBand = 3.0;
constexpr double kSocketSlack = 32.0;
/// Outage-repair traffic scales with how long the redial takes.
constexpr double kRecoverySocketSlack = 256.0;

constexpr const char* kSpeedupFloor =
    "micro.BM_PropertyAdmission.aot_vs_cold.speedup";
constexpr const char* kCopyRatioFloor =
    "micro.BM_PropertyAdmission.aot_vs_copy.median_ratio";

struct BenchFile {
  std::string mode;
  std::string box;
  std::vector<std::pair<std::string, double>> metrics;
};

/// The string value of a top-level `"key": "value",` line, or "".
std::string string_field(const std::string& line, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  if (line.find(quoted) == std::string::npos) return "";
  const auto colon = line.find(':', line.find(quoted) + quoted.size());
  const auto q0 = colon == std::string::npos ? colon : line.find('"', colon);
  const auto q1 = q0 == std::string::npos ? q0 : line.find('"', q0 + 1);
  return q1 == std::string::npos ? "" : line.substr(q0 + 1, q1 - q0 - 1);
}

/// Parse a bench_harness file. Accepts exactly the format bench_harness
/// writes: "mode" and "box" lines, then one `"name": value[,]` pair per line
/// inside the "metrics" object.
bool parse_bench_file(const char* path, BenchFile* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", path);
    return false;
  }
  std::string line;
  bool in_metrics = false;
  while (std::getline(in, line)) {
    if (line.find("\"metrics\"") != std::string::npos) {
      in_metrics = true;
      continue;
    }
    if (!in_metrics) {
      if (out->mode.empty()) out->mode = string_field(line, "mode");
      if (out->box.empty()) out->box = string_field(line, "box");
      continue;
    }
    if (line.find('}') != std::string::npos) break;
    const auto q0 = line.find('"');
    const auto q1 = q0 == std::string::npos ? q0 : line.find('"', q0 + 1);
    const auto colon = q1 == std::string::npos ? q1 : line.find(':', q1 + 1);
    if (colon == std::string::npos) continue;
    out->metrics.emplace_back(line.substr(q0 + 1, q1 - q0 - 1),
                              std::strtod(line.c_str() + colon + 1, nullptr));
  }
  if (!in_metrics) {
    std::fprintf(stderr, "bench_check: no \"metrics\" object in %s\n", path);
    return false;
  }
  return true;
}

bool has_suffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_prefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

bool is_time_row(const std::string& name) {
  return has_suffix(name, ".ns") || has_suffix(name, ".ms") ||
         has_suffix(name, ".wall_ms");
}

bool is_floor_row(const std::string& name) {
  return name == kSpeedupFloor || name == kCopyRatioFloor;
}

/// Socket traffic the kernel's scheduling decides. The trace-determined
/// counts (.program_events, .app_messages) and the seeded .kills stay exact.
bool is_socket_counter(const std::string& name) {
  if (!has_prefix(name, "socket.") && !has_prefix(name, "recovery.socket.")) {
    return false;
  }
  return !is_time_row(name) && !has_suffix(name, ".program_events") &&
         !has_suffix(name, ".app_messages") && !has_suffix(name, ".kills");
}

const double* lookup(const std::vector<std::pair<std::string, double>>& m,
                     const std::string& name) {
  for (const auto& [n, v] : m) {
    if (n == name) return &v;
  }
  return nullptr;
}

bool within(double base, double cand, double band, double slack) {
  return cand >= base / band - slack && cand <= base * band + slack;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fprintf(stderr,
                 "usage: bench_check <baseline.json> <candidate.json>\n");
    return 2;
  }
  BenchFile baseline, candidate;
  if (!parse_bench_file(argv[1], &baseline) ||
      !parse_bench_file(argv[2], &candidate)) {
    return 2;
  }
  const bool same_box = !baseline.box.empty() && baseline.box == candidate.box;

  int compared = 0;
  int failures = 0;
  int listed = 0;
  for (const auto& [name, cand] : candidate.metrics) {
    if (is_floor_row(name)) continue;  // checked on the candidate below
    const double* base = lookup(baseline.metrics, name);
    if (!base) continue;
    // Exact unless the row's kind is banded: band 1 with no slack admits
    // only the baseline value itself.
    double band = 1.0;
    double slack = 0.0;
    if (is_time_row(name)) {
      if (!same_box) {
        ++listed;
        std::printf("LIST %-48s baseline %.6g candidate %.6g (other box)\n",
                    name.c_str(), *base, cand);
        continue;
      }
      band = kTimeBand;
      slack = kTimeSlack;
    } else if (is_socket_counter(name)) {
      band = kSocketBand;
      slack = has_prefix(name, "recovery.socket.") ? kRecoverySocketSlack
                                                   : kSocketSlack;
    }
    ++compared;
    if (!within(*base, cand, band, slack)) {
      ++failures;
      std::printf("FAIL %-48s baseline %.6g candidate %.6g (%s)\n",
                  name.c_str(), *base, cand,
                  band == 1.0 ? "exact" : "outside band");
    }
  }

  if (candidate.mode == "full") {
    for (const auto& [name, base] : baseline.metrics) {
      if (lookup(candidate.metrics, name)) continue;
      ++failures;
      std::printf("FAIL %-48s baseline %.6g candidate missing (full run)\n",
                  name.c_str(), base);
    }
  }

  // Admission floors: the ahead-of-time registry hit must stay >= 100x
  // faster than cold synthesis and cheaper than a store hit that copies the
  // automaton out (median of the per-pair aot/copy ratios over interleaved
  // repetitions). A candidate that times aot must carry both.
  if (lookup(candidate.metrics, "micro.BM_PropertyAdmission.aot.ns")) {
    const double* speedup = lookup(candidate.metrics, kSpeedupFloor);
    const double* ratio = lookup(candidate.metrics, kCopyRatioFloor);
    compared += 2;
    if (!speedup || *speedup < 100.0) {
      ++failures;
      std::printf("FAIL %-48s candidate %s (floor 100x over cold synthesis)\n",
                  kSpeedupFloor,
                  speedup ? std::to_string(*speedup).c_str() : "missing");
    }
    if (!ratio || *ratio >= 1.0) {
      ++failures;
      std::printf(
          "FAIL %-48s candidate %s "
          "(zero-copy admission must beat copy-on-hit)\n",
          kCopyRatioFloor, ratio ? std::to_string(*ratio).c_str() : "missing");
    }
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_check: no overlapping metrics between %s and %s\n",
                 argv[1], argv[2]);
    return 1;
  }
  std::printf(
      "bench_check: %d metrics compared, %d failed, %d time rows listed "
      "(baseline box \"%s\", candidate box \"%s\")\n",
      compared, failures, listed, baseline.box.c_str(), candidate.box.c_str());
  return failures == 0 ? 0 : 1;
}

// bench_check: compare a freshly produced bench_harness JSON against the
// committed BENCH_core.json and fail on regressions. Used by the CI
// bench-regression smoke job:
//
//   bench_harness --quick --out bench_quick.json
//   bench_check BENCH_core.json bench_quick.json --wall-tol 4.0
//
// Only `cell.*`, `socket.*`, `service.*`, `stream.*`,
// `recovery.socket.*`, and `micro.BM_PropertyAdmission.*` metrics are
// compared, and only
// those present in BOTH files (quick mode runs a sub-grid; the simulator
// recovery.{clean,channel,crash}.* rows use different repetition counts per
// mode and the rest of micro.* is pure wall time, so neither is
// comparable). The admission .ns rows band by --wall-tol like any time
// metric; the aot row additionally carries two absolute, machine-
// independent floors -- >=100x faster than cold synthesis and strictly
// cheaper than a store hit that copies the automaton out -- checked on the
// candidate alone.
// Count-valued cell metrics (monitor_messages,
// global_views, peak_views, token_hops, wire_bytes) are deterministic for a
// given replication count and must match the baseline EXACTLY -- any drift means
// the monitor's communication behaviour changed and the baseline must be
// regenerated deliberately. Time-valued metrics (.wall_ms) are machine- and
// load-dependent and only need to stay within a tolerance factor of
// baseline.
//
// socket.* metrics come from real-time runs (kernel scheduling decides the
// token interleaving), so their traffic counters are NOT schedule-
// deterministic: wire_bytes / wire_frames / coalesced_frames are banded by
// --socket-tol instead of compared exactly. The trace-determined counts
// (.program_events, .app_messages) have no schedule dependence and stay
// exact -- they are the proof that quick and full modes drive the same
// workload.
//
// service.* cells run real shard worker threads: their .sessions/.events/
// .monitor_messages counts are schedule-independent (the cross-shard
// determinism invariant) and stay exact, while throughput, latency
// percentiles, and scaling factors are banded by --service-tol.
//
// recovery.socket.* rows (the §13.3 fault drill over real sockets) use a
// fixed replication count in both modes. The .kills counts are seeded-plan
// outcomes -- 0 clean, 1 fault -- and stay EXACT; where the RST lands
// relative to in-flight records is kernel scheduling, so the repair traffic
// (reconnects, retransmissions, disconnect_drops) is banded by --socket-tol
// and wall time by --wall-tol.
//
// stream.* cells are single-process simulator runs: every count
// (peak_history, peak_views, history_trimmed, gc_sweeps) is deterministic
// and exact; only .wall_ms is banded by --wall-tol. The exact peak_history
// rows are the committed bounded-memory evidence -- a drift here means the
// GC window changed shape.
//
//   bench_check <baseline.json> <candidate.json>
//               [--wall-tol FACTOR] [--socket-tol FACTOR]
//               [--service-tol FACTOR]
//
// Exit status: 0 all compared metrics pass, 1 any mismatch, 2 usage/IO.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// Parse the "metrics" object of a bench_harness file. Accepts exactly the
/// format bench_harness writes: one `"name": value[,]` pair per line.
bool parse_metrics(const char* path,
                   std::vector<std::pair<std::string, double>>* out) {
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
    if (!in_metrics) continue;
    if (line.find('}') != std::string::npos) break;
    const auto q0 = line.find('"');
    const auto q1 = q0 == std::string::npos ? q0 : line.find('"', q0 + 1);
    const auto colon = q1 == std::string::npos ? q1 : line.find(':', q1 + 1);
    if (colon == std::string::npos) continue;
    out->emplace_back(line.substr(q0 + 1, q1 - q0 - 1),
                      std::strtod(line.c_str() + colon + 1, nullptr));
  }
  if (!in_metrics) {
    std::fprintf(stderr, "bench_check: no \"metrics\" object in %s\n", path);
    return false;
  }
  return true;
}

bool is_time_metric(const std::string& name) {
  const auto dot = name.rfind('.');
  const std::string suffix = dot == std::string::npos ? "" : name.substr(dot);
  return suffix == ".ns" || suffix == ".ms" || suffix == ".wall_ms";
}

bool has_suffix(const std::string& name, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return name.size() >= len &&
         name.compare(name.size() - len, len, suffix) == 0;
}

/// Socket traffic counters vary with the kernel's scheduling of the real
/// runs; everything socket.* that is neither wall time nor trace-determined
/// is banded rather than exact.
bool is_banded_socket_count(const std::string& name) {
  if (name.rfind("socket.", 0) == 0 && !is_time_metric(name)) {
    return !has_suffix(name, ".program_events") &&
           !has_suffix(name, ".app_messages");
  }
  // recovery.socket.* repair traffic is scheduling-dependent too; only the
  // seeded kill count is deterministic (0 clean / 1 fault) and stays exact.
  if (name.rfind("recovery.socket.", 0) == 0 && !is_time_metric(name)) {
    return !has_suffix(name, ".kills");
  }
  return false;
}

/// Service cells run real worker threads, so only the trace-determined
/// counts (.sessions, .events, .monitor_messages -- the cross-shard
/// determinism invariant) are exact; throughput, percentiles, and scaling
/// factors depend on the machine and are banded by --service-tol.
bool is_exact_service_count(const std::string& name) {
  return has_suffix(name, ".sessions") || has_suffix(name, ".events") ||
         has_suffix(name, ".monitor_messages");
}

const double* lookup(const std::vector<std::pair<std::string, double>>& m,
                     const std::string& name) {
  for (const auto& [n, v] : m) {
    if (n == name) return &v;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  double wall_tol = 2.0;
  double socket_tol = 2.0;
  double service_tol = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wall-tol") == 0 && i + 1 < argc) {
      wall_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--socket-tol") == 0 && i + 1 < argc) {
      socket_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-tol") == 0 && i + 1 < argc) {
      service_tol = std::atof(argv[++i]);
    } else if (!baseline_path) {
      baseline_path = argv[i];
    } else if (!candidate_path) {
      candidate_path = argv[i];
    } else {
      baseline_path = nullptr;
      break;
    }
  }
  if (!baseline_path || !candidate_path || wall_tol < 1.0 ||
      socket_tol < 1.0 || service_tol < 1.0) {
    std::fprintf(stderr,
                 "usage: bench_check <baseline.json> <candidate.json> "
                 "[--wall-tol FACTOR>=1] [--socket-tol FACTOR>=1] "
                 "[--service-tol FACTOR>=1]\n");
    return 2;
  }

  std::vector<std::pair<std::string, double>> baseline, candidate;
  if (!parse_metrics(baseline_path, &baseline) ||
      !parse_metrics(candidate_path, &candidate)) {
    return 2;
  }

  int compared = 0;
  int failures = 0;
  for (const auto& [name, cand] : candidate) {
    const bool is_service = name.rfind("service.", 0) == 0;
    const bool is_admission =
        name.rfind("micro.BM_PropertyAdmission.", 0) == 0;
    if (name.rfind("cell.", 0) != 0 && name.rfind("socket.", 0) != 0 &&
        name.rfind("stream.", 0) != 0 &&
        name.rfind("recovery.socket.", 0) != 0 && !is_service &&
        !is_admission) {
      continue;
    }
    // The admission .ns rows are pure wall time (banded below like any
    // time metric); the derived .speedup ratio is the quotient of two
    // banded rows, so comparing it to baseline would double-count jitter.
    // Its real contract is the absolute floor checked after this loop.
    if (is_admission && !is_time_metric(name)) continue;
    const double* base = lookup(baseline, name);
    if (!base) continue;  // sub-grid runs simply cover fewer cells
    ++compared;
    if (is_service && !is_exact_service_count(name)) {
      // Threaded-run throughput/latency: band like wall time, with the same
      // absolute floor so sub-millisecond percentiles ride out timer noise.
      const double lo = *base / service_tol - 0.5;
      const double hi = *base * service_tol + 0.5;
      if (cand < lo || cand > hi) {
        ++failures;
        std::printf("FAIL %-44s baseline %.6g candidate %.6g (tol %.2fx)\n",
                    name.c_str(), *base, cand, service_tol);
      }
    } else if (is_time_metric(name)) {
      // Wall clock may go either way with machine load; only flag changes
      // beyond the tolerance factor. Sub-millisecond cells are dominated by
      // timer noise, so give them an absolute floor as well.
      const double lo = *base / wall_tol - 0.5;
      const double hi = *base * wall_tol + 0.5;
      if (cand < lo || cand > hi) {
        ++failures;
        std::printf("FAIL %-44s baseline %.4f candidate %.4f (tol %.2fx)\n",
                    name.c_str(), *base, cand, wall_tol);
      }
    } else if (is_banded_socket_count(name)) {
      // Real-run traffic counters: band like wall time, with an absolute
      // slack so near-zero counters (e.g. coalesced_frames on an idle
      // machine) cannot fail on jitter alone. Outage-repair traffic scales
      // with how long the redial takes on the machine at hand, so the
      // recovery rows get a wider absolute allowance.
      const double slack =
          name.rfind("recovery.socket.", 0) == 0 ? 256.0 : 32.0;
      const double lo = *base / socket_tol - slack;
      const double hi = *base * socket_tol + slack;
      if (cand < lo || cand > hi) {
        ++failures;
        std::printf("FAIL %-44s baseline %.6g candidate %.6g (tol %.2fx)\n",
                    name.c_str(), *base, cand, socket_tol);
      }
    } else if (*base != cand) {
      ++failures;
      std::printf("FAIL %-44s baseline %.6g candidate %.6g (exact)\n",
                  name.c_str(), *base, cand);
    }
  }

  // Zero-copy admission floors (candidate-only, machine-independent by
  // orders of magnitude): the ahead-of-time registry hit must stay >=100x
  // faster than cold synthesis and strictly cheaper than the
  // copy-on-hit posture. These are the committed perf claims of the
  // AOT-codegen change; a violation means the admission fast path rotted.
  {
    const double* speedup =
        lookup(candidate, "micro.BM_PropertyAdmission.aot_vs_cold.speedup");
    const double* aot = lookup(candidate, "micro.BM_PropertyAdmission.aot.ns");
    const double* copy =
        lookup(candidate, "micro.BM_PropertyAdmission.cache_hit_copy.ns");
    if (speedup) {
      ++compared;
      if (*speedup < 100.0) {
        ++failures;
        std::printf(
            "FAIL %-44s candidate %.6g (floor 100x over cold synthesis)\n",
            "micro.BM_PropertyAdmission.aot_vs_cold.speedup", *speedup);
      }
    }
    if (aot && copy) {
      ++compared;
      if (*aot >= *copy) {
        ++failures;
        std::printf(
            "FAIL %-44s aot %.6g >= cache_hit_copy %.6g "
            "(zero-copy admission must beat copy-on-hit)\n",
            "micro.BM_PropertyAdmission.aot.ns", *aot, *copy);
      }
    }
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_check: no overlapping "
                 "cell.*/socket.*/service.*/stream.*/recovery.socket.* "
                 "metrics between %s and %s\n",
                 baseline_path, candidate_path);
    return 1;
  }
  std::printf("bench_check: %d metrics compared, %d failed\n", compared,
              failures);
  return failures == 0 ? 0 : 1;
}

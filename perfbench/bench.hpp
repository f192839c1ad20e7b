// Shared types of the repository benchmark (see README.md in this
// directory for the workloads and metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for span dumps and result records ("" = none).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run.
struct Report {
  std::uint64_t attempted = 0;  ///< sessions or socket drains checked
  std::uint64_t failed = 0;     ///< threw, did not drain, or wrong verdict
  bool valid = true;            ///< open-loop backlog stayed bounded
  bool spine_ok = true;         ///< exact counts repeated where required
  std::vector<Metric> metrics;  ///< end-to-end (untraced phase)
  std::vector<Metric> layers;   ///< per-layer (traced phase)
  std::vector<std::string> notes;  ///< human-readable diagnostics

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  bool correct() const { return failed == 0 && valid && spine_ok; }
};

Report run_walk(const Options& opt);
Report run_fleet(const Options& opt);
Report run_stream(const Options& opt);
Report run_socket(const Options& opt);

}  // namespace perfbench

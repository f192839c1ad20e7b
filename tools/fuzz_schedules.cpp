// Differential schedule fuzzing driver (see DESIGN.md §7 and
// EXPERIMENTS.md): sweep seeded fault configurations over property/process
// cells, check every decentralized run against the lattice oracle, and dump
// self-contained repros for any contract violation.
//
// Usage:
//   fuzz_schedules [--seed N] [--cases N] [--cells A:3,B:2,E:3]
//                  [--internal-events N]
//                  [--reliable-channel] [--lossy] [--crash] [--gc]
//                  [--cell-timeout-sec N]
//                  [--repro-dir DIR] [--repro FILE]
//
// --repro FILE re-runs a dumped repro and prints its outcome (exit 1 if the
// violation reproduces). Everything else runs a sweep (exit 1 on any
// violation). --crash kills one seeded monitor node per case and restarts it
// from its checkpoint; --lossy makes the faulty network truly swallow
// messages (survivable only with --reliable-channel / --crash).
// --gc runs every case in the bounded-memory streaming posture (history GC
// at an aggressive cadence) so trimming is raced against every fault class.
// --cell-timeout-sec arms a wall-clock watchdog: if any single case runs
// longer than the budget, the partial repro of the stuck case is dumped
// (to --repro-dir if set, else stderr) and the process exits 3 instead of
// hanging CI.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "decmon/distributed/schedule_fuzz.hpp"

namespace {

using decmon::fuzz::Cell;
using decmon::fuzz::Options;

int usage() {
  std::cerr
      << "usage: fuzz_schedules [--seed N] [--cases N] [--cells A:3,B:2]\n"
         "                      [--internal-events N]\n"
         "                      [--reliable-channel] [--lossy] [--crash]\n"
         "                      [--gc]\n"
         "                      [--cell-timeout-sec N]\n"
         "                      [--repro-dir DIR] [--repro FILE]\n";
  return 2;
}

/// Wall-clock watchdog over the sweep. run_sweep reports each case's partial
/// repro through on_case_start; a polling thread checks how long the current
/// case has been running and, past the budget, dumps that blob and exits
/// with status 3 -- a hung case must surface as a reproducible artifact, not
/// as a CI timeout with no evidence.
class Watchdog {
 public:
  Watchdog(int timeout_sec, std::string repro_dir)
      : timeout_(timeout_sec), repro_dir_(std::move(repro_dir)) {
    thread_ = std::thread([this] { run(); });
  }

  ~Watchdog() {
    {
      std::scoped_lock lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void case_started(const std::string& partial_repro) {
    std::scoped_lock lock(mutex_);
    current_ = partial_repro;
    started_ = std::chrono::steady_clock::now();
  }

 private:
  void run() {
    std::unique_lock lock(mutex_);
    while (!done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(200));
      if (done_ || current_.empty()) continue;
      const auto elapsed = std::chrono::steady_clock::now() - started_;
      if (elapsed < std::chrono::seconds(timeout_)) continue;
      std::cerr << "fuzz_schedules: case exceeded " << timeout_
                << "s wall-clock budget\n";
      if (!repro_dir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(repro_dir_, ec);
        const std::string path = repro_dir_ + "/timeout-partial-repro.txt";
        std::ofstream out(path);
        out << current_;
        out.flush();
        std::cerr << "fuzz_schedules: partial repro written to " << path
                  << "\n";
      } else {
        std::cerr << "---- partial repro of stuck case ----\n"
                  << current_ << "-------------------------------------\n";
      }
      // The stuck case may hold locks or be livelocked; a clean shutdown is
      // not available. _Exit skips atexit/destructors on purpose.
      std::_Exit(3);
    }
  }

  const int timeout_;
  const std::string repro_dir_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string current_;
  std::chrono::steady_clock::time_point started_;
  bool done_ = false;
  std::thread thread_;
};

std::vector<Cell> parse_cells(const std::string& text) {
  std::vector<Cell> cells;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::runtime_error("bad cell " + item + " (want PROP:N)");
    }
    Cell cell;
    bool found = false;
    const std::string name = item.substr(0, colon);
    for (decmon::paper::Property p : decmon::paper::kAllProperties) {
      if (decmon::paper::name(p) == name) {
        cell.property = p;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("unknown property " + name);
    cell.num_processes = std::stoi(item.substr(colon + 1));
    if (cell.num_processes < 2) {
      throw std::runtime_error("cell needs >= 2 processes: " + item);
    }
    cells.push_back(cell);
  }
  if (cells.empty()) throw std::runtime_error("empty cell list");
  return cells;
}

int run_one_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fuzz_schedules: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const decmon::fuzz::ReproOutcome outcome =
      decmon::fuzz::run_repro(buf.str());
  std::cout << "repro: " << path << "\n"
            << "violation: " << (outcome.violation ? "yes" : "no") << "\n";
  if (outcome.violation) {
    std::cout << "kind: " << outcome.kind << "\ndetail: " << outcome.detail
              << "\n";
  }
  std::cout << "all_finished: " << (outcome.all_finished ? 1 : 0) << "\n";
  return outcome.violation ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string repro_dir;
  std::string repro_file;
  int cell_timeout_sec = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--cases") {
        options.cases_per_cell = std::stoi(value());
      } else if (arg == "--cells") {
        options.cells = parse_cells(value());
      } else if (arg == "--internal-events") {
        options.internal_events = std::stoi(value());
      } else if (arg == "--reliable-channel") {
        options.reliable_channel = true;
      } else if (arg == "--lossy") {
        options.lossy = true;
      } else if (arg == "--crash") {
        options.crash = true;
      } else if (arg == "--gc") {
        options.gc = true;
      } else if (arg == "--cell-timeout-sec") {
        cell_timeout_sec = std::stoi(value());
        if (cell_timeout_sec < 1) {
          throw std::runtime_error("--cell-timeout-sec wants a positive value");
        }
      } else if (arg == "--repro-dir") {
        repro_dir = value();
      } else if (arg == "--repro") {
        repro_file = value();
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "fuzz_schedules: " << e.what() << "\n";
    return usage();
  }

  if (!repro_file.empty()) return run_one_repro(repro_file);

  std::unique_ptr<Watchdog> watchdog;
  if (cell_timeout_sec > 0) {
    watchdog = std::make_unique<Watchdog>(cell_timeout_sec, repro_dir);
    options.on_case_start = [&watchdog](const std::string& partial) {
      watchdog->case_started(partial);
    };
  }

  const decmon::fuzz::Report report =
      decmon::fuzz::run_sweep(options, &std::cout);
  watchdog.reset();  // disarm before the (fast) reporting tail
  std::cout << "cases " << report.cases << " skipped " << report.skipped
            << " violations " << report.violation_count << "\n"
            << "faults: messages " << report.faults.messages
            << " delay_spikes " << report.faults.delay_spikes << " reordered "
            << report.faults.reordered << " duplicated "
            << report.faults.duplicated << " dropped " << report.faults.dropped
            << " lost " << report.faults.lost << "\n";
  if (options.reliable_channel || options.crash || options.lossy) {
    std::cout << "channel: data_sent " << report.channel.data_sent
              << " retransmissions " << report.channel.retransmissions
              << " acks_sent " << report.channel.acks_sent
              << " dup_suppressed " << report.channel.dup_suppressed
              << " timer_fires " << report.channel.timer_fires << "\n";
  }
  if (options.crash) {
    std::cout << "crash: crashes " << report.crash.crashes << " restarts "
              << report.crash.restarts << " checkpoints "
              << report.crash.checkpoints_taken << " checkpoint_bytes "
              << report.crash.checkpoint_bytes << " dropped_while_down "
              << report.crash.dropped_while_down << " journal_replayed "
              << report.crash.journal_replayed << "\n";
  }

  int written = 0;
  for (const auto& v : report.violations) {
    std::cout << "violation [" << decmon::paper::name(v.property) << "/n="
              << v.num_processes << " " << decmon::fuzz::to_string(v.mode)
              << "] " << v.kind << ": " << v.detail << "\n";
    if (v.repro.empty()) continue;
    if (!repro_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(repro_dir, ec);
      const std::string path =
          repro_dir + "/repro-" + std::to_string(written) + ".txt";
      std::ofstream out(path);
      out << v.repro;
      if (out) {
        std::cout << "  repro written to " << path << "\n";
      } else {
        std::cerr << "fuzz_schedules: failed to write " << path << "\n";
      }
    } else if (written == 0) {
      std::cout << "---- first repro ----\n" << v.repro << "---------------\n";
    }
    ++written;
  }
  return report.ok() ? 0 : 1;
}

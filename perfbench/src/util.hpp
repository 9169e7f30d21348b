// Shared plumbing for the end-to-end benchmark: failure handling, timing,
// order statistics, process accounting and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace perfbench {

// A failed output check or an unexpected library error. Caught in main():
// the run prints what it has with "correct": false and exits non-zero.
struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& what);

inline void check(bool condition, const std::string& what) {
  if (!condition) fail(what);
}

inline void expect_ok(const xmit::Status& status, const std::string& what) {
  if (!status.is_ok()) fail(what + ": " + status.to_string());
}

template <typename T>
T expect(xmit::Result<T> result, const std::string& what) {
  if (!result.is_ok()) fail(what + ": " + result.status().to_string());
  return std::move(result).value();
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Order statistics over a copy; `q` in [0, 1], linear interpolation
// between closest ranks. Empty input reads 0.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
// Mean of the values left after dropping the lowest and the highest tenth:
// one stalled sample moves it little, and samples taken while the machine
// runs at different speeds are averaged rather than one speed picked (a
// median snaps to whichever speed held most of the run). Empty reads 0.
double trimmed_mean(std::vector<double> values);

// Whole-process CPU and scheduler accounting (getrusage RUSAGE_SELF), so
// work moved onto helper threads is counted.
struct ProcessTimes {
  double cpu_s = 0;              // user + system
  long voluntary_switches = 0;   // waits: blocking syscalls, futexes
};
ProcessTimes process_times();
// Peak resident set of this process image, in MiB.
double peak_rss_mb();

// Operations the run attempted, by kind. Every run repeats whole rounds
// of the same operations; a failure aborts the run, so `failed` is the
// number of operations that were attempted and did not complete.
struct Ops {
  std::uint64_t records_sent = 0;
  std::uint64_t records_received = 0;
  std::uint64_t records_decoded = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t replays = 0;
  std::uint64_t failed = 0;

  std::uint64_t attempted() const {
    return records_sent + cold_starts + replays;
  }
};

// Named metrics in insertion order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Human-readable table (one "name value unit" line each) to stdout.
  void print_table() const;
  // The single-line result object the driver reads.
  std::string json(bool correct, const Ops& ops) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

// Keeps the calling thread on one CPU while alive, then restores its
// previous CPU mask. Threads the pinned thread starts inherit the pin.
class PinnedThread {
 public:
  explicit PinnedThread(int cpu);
  ~PinnedThread();
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

 private:
  std::vector<unsigned char> saved_;  // cpu_set_t image
  bool pinned_ = false;
};

// Removes and re-creates `path` (a directory the run owns).
void fresh_dir(const std::string& path);
// Bytes in the write-ahead-log segment files (*.log) directly in `dir`.
std::uint64_t segment_bytes(const std::string& dir);

}  // namespace perfbench

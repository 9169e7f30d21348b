#include "util.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

void fail(const std::string& what) { throw Failure(what); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

ProcessTimes process_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessTimes times;
  times.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                static_cast<double>(usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  times.voluntary_switches = usage.ru_nvcsw;
  return times;
}

double peak_rss_mb() {
  // VmHWM is this image's own high-water mark; ru_maxrss would also carry
  // whatever the parent had resident when it forked the benchmark.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) fail("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  if (kib <= 0) fail("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  rows_.push_back({name, {value, unit}});
}

void Report::print_table() const {
  for (const auto& [name, row] : rows_)
    std::printf("  %-34s %16.6g %s\n", name.c_str(), row.first,
                row.second.c_str());
}

std::string Report::json(bool correct, const Ops& ops) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted());
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, row] : rows_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", row.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           row.second + "\"}";
  }
  out += "}}";
  return out;
}

PinnedThread::PinnedThread(int cpu) : saved_(sizeof(cpu_set_t)) {
  auto* saved = reinterpret_cast<cpu_set_t*>(saved_.data());
  if (sched_getaffinity(0, sizeof(cpu_set_t), saved) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(cpu_set_t), &one) == 0;
}

PinnedThread::~PinnedThread() {
  if (pinned_)
    sched_setaffinity(0, sizeof(cpu_set_t),
                      reinterpret_cast<cpu_set_t*>(saved_.data()));
}

void fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) fail("cannot create " + path + ": " + ec.message());
}

std::uint64_t segment_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".log") total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench

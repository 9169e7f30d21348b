// xmit_perfbench: one workload, one run.
//
//   xmit_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Prints a table of metrics, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics". Untraced runs report
// the end-to-end metrics, traced runs the per-layer ones (README.md).
// Any failed output check exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/plan_verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const char* const kPerLayer[] = {
    "session.send_us",        "session.recv_us",
    "session.self_us",        "session.unexplained_us",
    "session.metadata_bytes", "session.announcements",
    "session.queue_depth_peak", "session.block_ms",
    "session.credit_grants",  "net.send_us",
    "net.recv_us",            "net.frames_per_record",
    "net.http_fetch_ms",      "net.http_requests",
    "xml.parse_mb_per_s",     "xsd.model_us_per_type",
    "xmit.translate_ms",      "xmit.register_ms",
    "xmit.bind_us",           "pbio.encode_us",
    "pbio.decode_us",         "pbio.decode_mb_per_s",
    "pbio.batch_records_per_s", "pbio.plan_build_us",
    "pbio.plan_cache_misses", "pbio.register_us",
    "pbio.by_id_ns",          "analysis.verify_us",
    "storage.append_us",      "storage.scan_records_per_s",
    "storage.log_bytes_per_record", "process.voluntary_switches",
    "trace.overhead_pct"};

// Cold starts are grouped in rounds of this many consecutive samples;
// each percentile is reported as the trimmed mean over rounds of the
// round's percentile, so one stall (a slow fsync, a burst of outside
// load) moves one round, not the run's tail.
constexpr std::size_t kColdStartRound = 20;

double round_quantile(const std::vector<double>& samples, double q) {
  std::vector<double> per_round;
  for (std::size_t first = 0; first + kColdStartRound <= samples.size();
       first += kColdStartRound)
    per_round.push_back(quantile(
        std::vector<double>(samples.begin() + first,
                            samples.begin() + first + kColdStartRound),
        q));
  return per_round.empty() ? quantile(samples, q) : trimmed_mean(per_round);
}

// Rates and latencies are trimmed means over the run's rounds (util.hpp
// says why); setup_s is the median over the run's set-ups.
void end_to_end(const Figures& f, Report& report) {
  report.add("records_per_s", trimmed_mean(f.round_rate), "records/s");
  report.add("payload_mb_per_s", trimmed_mean(f.round_mb), "MB/s");
  report.add("latency_p50_us", trimmed_mean(f.latency_p50_us), "us");
  report.add("latency_p90_us", trimmed_mean(f.latency_p90_us), "us");
  report.add("cpu_us_per_record",
             per(f.stream.cpu_s * 1e6, f.stream.records), "us");
  report.add("wire_bytes_per_record",
             per(f.stream.wire_bytes, f.stream.records), "B");
  report.add("setup_s", median(f.setup_s), "s");
  report.add("cold_start_ms_p50", round_quantile(f.cold_start_ms, 0.5), "ms");
  report.add("cold_start_ms_p90", round_quantile(f.cold_start_ms, 0.9), "ms");
  report.add("discovery_bytes_per_format", f.discovery_bytes_per_format, "B");
  report.add("replay_records_per_s", trimmed_mean(f.replay_rate), "records/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

int usage() {
  std::fprintf(stderr,
               "usage: xmit_perfbench --workload small_stream|bulk_convert|"
               "cold_start|durable_replay --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") options.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--work-dir") options.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.work_dir.empty() || options.seconds <= 0)
    return usage();
  void (*workload)(const RunOptions&, Figures&, Ops&) = nullptr;
  if (options.workload == "small_stream") workload = run_small_stream;
  if (options.workload == "bulk_convert") workload = run_bulk_convert;
  if (options.workload == "cold_start") workload = run_cold_start;
  if (options.workload == "durable_replay") workload = run_durable_replay;
  if (workload == nullptr) return usage();

  // Sessions verify every peer-described plan; the probes verify too.
  xmit::analysis::register_plan_verifier();
  fresh_dir(options.work_dir);
  Figures figures;
  Ops ops;
  Report report;
  bool correct = true;
  try {
    workload(options, figures, ops);
    if (options.trace) {
      for (const char* name : kPerLayer) {
        auto it = figures.layers.find(name);
        if (it == figures.layers.end()) fail(std::string("layer metric ") +
                                             name + " was not measured");
        report.add(name, it->second.first, it->second.second);
      }
    } else {
      end_to_end(figures, report);
    }
  } catch (const Failure& failure) {
    std::fprintf(stderr, "FAILED: %s\n", failure.what());
    correct = false;
    ++ops.failed;
  }
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("  operations: records sent %llu, received %llu, decoded %llu; "
              "cold starts %llu; replays %llu; failed %llu\n",
              static_cast<unsigned long long>(ops.records_sent),
              static_cast<unsigned long long>(ops.records_received),
              static_cast<unsigned long long>(ops.records_decoded),
              static_cast<unsigned long long>(ops.cold_starts),
              static_cast<unsigned long long>(ops.replays),
              static_cast<unsigned long long>(ops.failed));
  report.print_table();
  std::printf("%s\n", report.json(correct, ops).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }

// The measured phases every workload shares, and the figures they feed.
//
//   stream     closed-loop rounds over a session pair, windowed so one
//              thread can drive both ends without filling the socket
//   latency    one record in flight: send() entry to decoded struct
//   durable    a durable, flow-controlled pair streams one round live
//              (sender and receiver on two threads), then a cold
//              subscriber replays the whole write-ahead log
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "pbio/decode.hpp"
#include "records.hpp"
#include "session/session.hpp"
#include "storage/log.hpp"
#include "util.hpp"

namespace perfbench {

namespace session = xmit::session;
namespace storage = xmit::storage;

// Write-ahead-log fsync policy for every durable phase. kInterval (fsync
// every 64 appends) did not repeat within the bounds on the reference
// machine's shared disk, so the data log runs kNone (README.md). The
// format catalog still fsyncs every new format, whatever the policy.
inline constexpr storage::FsyncPolicy kDurableFsync =
    storage::FsyncPolicy::kNone;

// Samples per latency round: the 90th percentile of a round has at
// least ten samples beyond it.
inline constexpr std::size_t kLatencyRound = 256;

// Whole-process cost of the streaming phase, summed over its slices.
struct StreamTotals {
  double records = 0;
  double cpu_s = 0;               // user + system, every thread
  double wire_bytes = 0;          // sender channel bytes
  double frames = 0;              // sender channel frames
  double voluntary_switches = 0;
};

// Everything a run measured, before it is reduced to reported metrics.
struct Figures {
  std::vector<double> setup_s;        // one per set-up
  std::vector<double> cold_start_ms;  // one per cold start
  std::vector<double> round_rate;     // records/s, one per stream round
  std::vector<double> round_mb;       // MB/s, one per stream round
  StreamTotals stream;
  // One record in flight: each latency round (>= kLatencyRound samples)
  // contributes its own median and 90th percentile.
  std::vector<double> latency_p50_us;
  std::vector<double> latency_p90_us;
  std::vector<double> replay_rate;    // records/s, one per replay
  double discovery_bytes_per_format = 0;

  // Traced runs only: per-layer values, by metric name.
  std::map<std::string, std::pair<double, std::string>> layers;
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
};

// One phase of a run and its share of every cycle. `run(budget_s)` does
// at least one whole unit of the phase's work (a round, a set-up) and
// keeps going while the budget lasts.
struct Slice {
  double share = 0;
  std::function<void(double budget_s)> run;
};

// Interleaves the phases: cycles of kCycleSeconds, each giving every
// slice its share, until `seconds` are spent. Every metric's samples so
// span the whole run, and a burst of outside load lands on all phases
// alike instead of on whichever phase happened to be running.
inline constexpr double kCycleSeconds = 0.25;
void run_interleaved(double seconds, const std::vector<Slice>& slices);

// Sender-side and receiver-side in-place timings of a traced phase.
struct InPlace {
  double send_s = 0;
  double recv_s = 0;
  std::uint64_t records = 0;
  std::vector<double> round_rate;  // traced end-to-end, per round
};

// Stream rounds on one thread: each window sends `window` records, then
// receives and decodes them through Traffic::receive (timed), then checks
// every decoded record against the generator (untimed). Whole rounds
// until the budget is spent. Feeds round_rate, round_mb and the stream
// totals; with `in_place`, times each send() and each window's receive
// instead and feeds only `in_place`.
void stream_phase(session::SessionPair& pair, const Traffic& traffic,
                  const pbio::Decoder& decoder, std::size_t window,
                  double budget_s, Figures& figures, Ops& ops,
                  InPlace* in_place);

// One record in flight at a time over `pair` (send, then Traffic::receive
// of one), whole latency rounds (whole passes over the traffic) until the
// budget is spent.
void latency_phase(session::SessionPair& pair, const Traffic& traffic,
                   const pbio::Decoder& decoder, double budget_s,
                   Figures& figures, Ops& ops);

// Session options of the durable, flow-controlled sender (an empty `dir`
// leaves it flow-controlled only) and of the flow-controlled receiver.
session::SessionOptions durable_sender_options(const std::string& dir);
session::SessionOptions flow_receiver_options();

// Result of one durable round.
struct DurableRound {
  double live_s = 0;
  double replay_s = 0;
  std::uint64_t records = 0;
  std::uint64_t wire_bytes = 0;   // sender channel bytes, live phase
  std::uint64_t frames = 0;       // sender channel frames, live phase
  std::uint64_t log_bytes = 0;    // segment files after the live phase
  std::size_t queue_peak = 0;
  double block_ms = 0;
  std::size_t credit_grants = 0;
  double cpu_s = 0;               // live phase, whole process
  long voluntary_switches = 0;    // live phase, whole process
  std::uint64_t native_bytes = 0;
  double send_s = 0;              // traced: in-place send() time
  double recv_s = 0;              // traced: in-place receive+decode time
};

// One durable round in a fresh `dir`: live stream of one traffic round
// from `sender_registry` (which must hold every format the traffic
// sends), checking every record, then a cold subscriber's historical
// replay of the whole log (a sender pump thread beside the caller),
// checked byte for byte. The live stream runs on the caller's thread in
// windows that never exhaust credit; with `pressure` it runs on two
// threads instead and the sender runs ahead into kBlockWithDeadline (the
// flow-control probe). `traced` times each send and receive in place.
DurableRound durable_round(const Traffic& traffic,
                           pbio::FormatRegistry& sender_registry,
                           const std::string& dir, bool traced, bool pressure,
                           Ops& ops);

// Rounds of durable_round until `budget_s` is spent (at least one);
// appends each round to `rounds` and its replay rate to
// figures.replay_rate.
void durable_phase(const Traffic& traffic,
                   pbio::FormatRegistry& sender_registry,
                   const std::string& dir, double budget_s, bool traced,
                   Figures& figures, Ops& ops,
                   std::vector<DurableRound>& rounds);

// Single-thread flow-controlled pairs need the receiver's first credit
// grant on the wire before the first send can leave the queue.
void prime_flow_control(session::MessageSession& receiver);

// Passes over `records` that make one latency round.
inline std::size_t latency_passes(std::size_t records) {
  return (kLatencyRound + records - 1) / records;
}

// Closes one latency round of per-record samples (microseconds).
void add_latency_round(const std::vector<double>& samples, Figures& figures);

// total / count, or 0 when nothing was counted.
inline double per(double total, double count) {
  return count > 0 ? total / count : 0;
}

}  // namespace perfbench

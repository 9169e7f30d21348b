// The four workloads (README.md says why each exists) and the set-up,
// streaming and tracing sequence they share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "phases.hpp"
#include "probes.hpp"
#include "util.hpp"
#include "world.hpp"

namespace perfbench {

void run_small_stream(const RunOptions& options, Figures& figures, Ops& ops);
void run_bulk_convert(const RunOptions& options, Figures& figures, Ops& ops);
void run_cold_start(const RunOptions& options, Figures& figures, Ops& ops);
void run_durable_replay(const RunOptions& options, Figures& figures, Ops& ops);

// Two application ends and the session pair between them.
struct Ends {
  std::unique_ptr<End> tx, rx;
  std::unique_ptr<session::SessionPair> pair;
};

// Discovers, binds and connects a fresh pair of ends (the set-up).
using Connect = std::function<Ends(DiscoveryTally&)>;

// One cold start: `connect` (timed as set-up), then record k of `traffic`
// sent as the first record of types[k] through the fresh ends' bindings
// and received at the fresh receiver (timed as cold start). Records
// 0..types.size()-1 of the traffic are one of each type, in types'
// order. Checks every record and that each format was announced exactly
// once. The ends are discarded afterwards.
void cold_start_once(const Connect& connect,
                     const std::vector<std::string>& types,
                     const Traffic& traffic, const DocServer& server,
                     Figures& figures, SetupStats& stats, Ops& ops);

// A workload's set-up slice: cold starts back to back, pinned to the
// HTTP server's CPU, until the slice's budget is spent. Holds references
// to every argument.
Slice setup_slice(double share, const Connect& connect,
                  const std::vector<std::string>& types,
                  const Traffic& traffic, const DocServer& server,
                  Figures& figures, SetupStats& stats, Ops& ops);

// The run of a streaming workload: cycles that give `setup` its share and
// split the rest between stream rounds (windows of `window` records) and
// latency rounds over the persistent `stream` ends; then, outside those
// cycles, durable rounds of the same traffic for replay_records_per_s.
// Traced runs add traced stream slices to the cycles, then run
// trace_layers().
void run_plain(const RunOptions& options, const Slice& setup,
               std::size_t window, std::size_t workers, Ends& stream,
               const Traffic& traffic, const std::vector<SchemaDoc>& docs,
               const SetupStats& stats, Figures& figures, Ops& ops);

// Every layer figure of a traced run: the set-up samples in `stats`, the
// probes on the traffic (its wire formats in `sender_registry`, decoded
// at `workers` decode workers) and on `docs` (the schema documents of one
// cold start, every end), and the in-place stream timings.
void trace_layers(const RunOptions& options, const Traffic& traffic,
                  pbio::FormatRegistry& sender_registry, std::size_t workers,
                  const std::vector<SchemaDoc>& docs, const SetupStats& stats,
                  const InPlace& in_place, Figures& figures, Ops& ops);

}  // namespace perfbench

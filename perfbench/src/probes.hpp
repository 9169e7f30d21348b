// Per-layer probes for traced runs. Each one times calls into a single
// layer's public functions from the benchmark's own code, on the
// workload's own inputs, and records the figures by metric name.
#pragma once

#include <string>
#include <vector>

#include "pbio/arch.hpp"
#include "pbio/registry.hpp"
#include "phases.hpp"
#include "records.hpp"

namespace perfbench {

// One schema document as an end discovers it, with the architecture that
// end lays it out for.
struct SchemaDoc {
  std::string text;
  pbio::ArchInfo arch;
};

// xml.parse_mb_per_s, xsd.model_us_per_type, xmit.translate_ms and
// xmit.register_ms (per cold start: every document of every end),
// pbio.register_us (per format).
void probe_schema(const std::vector<SchemaDoc>& docs, double budget_s,
                  Figures& figures);

// pbio.encode_us, pbio.decode_us, pbio.decode_mb_per_s, pbio.by_id_ns,
// pbio.plan_build_us, analysis.verify_us and pbio.batch_records_per_s at
// `workers` decode workers. `sender_formats` resolves the wire records'
// format ids, as a receiving registry does after discovery.
void probe_pbio(const Traffic& traffic,
                const pbio::FormatRegistry& sender_formats,
                std::size_t workers, double budget_s, Figures& figures);

// net.send_us and net.recv_us: Channel::send_gather and
// Channel::receive_into on the session frames of the traffic.
void probe_net(const Traffic& traffic, double budget_s, Figures& figures);

// storage.append_us, storage.scan_records_per_s and
// storage.log_bytes_per_record: RecordLog at the durable fsync policy.
void probe_storage(const Traffic& traffic, const std::string& dir,
                   double budget_s, Figures& figures);

// Per set-up (cold start) samples of discovery and first-record work.
struct SetupStats {
  std::vector<double> fetch_ms;          // LoadStats::fetch_ms, all ends
  std::vector<double> http_requests;     // requests the server answered
  std::vector<double> bind_us_per_type;  // Xmit::bind
  std::vector<double> metadata_bytes;    // in-band metadata_bytes_sent
  std::vector<double> announcements;     // announcements_sent
  std::vector<double> plan_misses;       // plan-cache misses, all decoders
};

// net.http_fetch_ms, net.http_requests, xmit.bind_us,
// session.metadata_bytes, session.announcements, pbio.plan_cache_misses.
void setup_layers(const SetupStats& stats, Figures& figures);

// session.queue_depth_peak, session.block_ms and session.credit_grants:
// durable rounds of the traffic with sender and receiver on two threads
// and a receiver paced slower than the sender, so the sender runs ahead
// of its credit and blocks.
void probe_flow_control(const Traffic& traffic,
                        pbio::FormatRegistry& sender_registry,
                        const std::string& dir, double budget_s,
                        Figures& figures, Ops& ops);

// Session, net and overhead figures of a traced plain stream, against
// the untraced figures of the same run: session.send_us,
// session.recv_us, session.self_us, session.unexplained_us,
// trace.overhead_pct. Needs the pbio and net probes to have run.
void stream_layers(const InPlace& in_place, Figures& figures);

}  // namespace perfbench

#include "workloads.hpp"

namespace perfbench {
namespace {

// Share of a streaming workload's run given to durable rounds, apart
// from its cycles. The rounds run outside the cycles because the disk work a
// write-ahead log leaves in flight would otherwise land in the set-up,
// stream and latency figures of a workload that does not use it.
constexpr double kDurableShare = 0.15;
// The durable rounds are split into blocks between stretches of cycles,
// so replay_records_per_s samples the whole run as the other figures do
// rather than one stretch of the machine's speed at the run's end.
constexpr int kDurableBlocks = 5;

}  // namespace

void cold_start_once(const Connect& connect,
                     const std::vector<std::string>& types,
                     const Traffic& traffic, const DocServer& server,
                     Figures& figures, SetupStats& stats, Ops& ops) {
  DiscoveryTally tally;
  const std::size_t requests_before = server.requests();
  const std::size_t bytes_before = server.body_bytes();
  const double t0 = now_s();
  Ends ends = connect(tally);
  const double t1 = now_s();
  pbio::Decoder decoder(ends.rx->registry());
  xmit::Arena arena;
  std::vector<StructSlot> slots(types.size());
  std::vector<const void*> decoded(types.size());
  for (std::size_t k = 0; k < types.size(); ++k) {
    expect_ok(traffic.send_as(ends.pair->a, k, ends.tx->token(types[k])),
              "first send of " + types[k]);
    const pbio::Format* receiver = ends.rx->token(types[k]).format.get();
    traffic.receive(ends.pair->b, {&receiver, 1}, decoder, arena, &slots[k],
                    &decoded[k]);
  }
  const double t2 = now_s();
  for (std::size_t k = 0; k < types.size(); ++k) {
    check(traffic.receiver_format(k).name() == types[k],
          "record " + std::to_string(k) + " is not the first " + types[k]);
    traffic.check_decoded(k, decoded[k]);
  }

  const session::MessageSession& sender = ends.pair->a;
  const std::size_t formats = types.size();
  check(sender.announcements_sent() == formats &&
            ends.pair->b.announcements_received() == formats,
        "each format must be announced exactly once");
  figures.setup_s.push_back(t1 - t0);
  figures.cold_start_ms.push_back((t2 - t0) * 1e3);
  figures.discovery_bytes_per_format =
      static_cast<double>(server.body_bytes() - bytes_before +
                          sender.metadata_bytes_sent()) /
      static_cast<double>(formats);
  stats.fetch_ms.push_back(tally.fetch_ms);
  stats.http_requests.push_back(
      static_cast<double>(server.requests() - requests_before));
  stats.bind_us_per_type.push_back(tally.bind_us /
                                   static_cast<double>(tally.types_bound));
  stats.metadata_bytes.push_back(
      static_cast<double>(sender.metadata_bytes_sent()));
  stats.announcements.push_back(
      static_cast<double>(sender.announcements_sent()));
  stats.plan_misses.push_back(
      static_cast<double>(decoder.plan_cache_stats().misses +
                          ends.pair->b.plan_cache_stats().misses));
  ops.cold_starts += 1;
  ops.records_sent += formats;
  ops.records_received += formats;
  ops.records_decoded += formats;
}

Slice setup_slice(double share, const Connect& connect,
                  const std::vector<std::string>& types,
                  const Traffic& traffic, const DocServer& server,
                  Figures& figures, SetupStats& stats, Ops& ops) {
  return {share, [&](double budget) {
            PinnedThread pin(server.cpu());
            const double start = now_s();
            do {
              cold_start_once(connect, types, traffic, server, figures, stats,
                              ops);
            } while (now_s() - start < budget);
          }};
}

void run_plain(const RunOptions& options, const Slice& setup,
               std::size_t window, std::size_t workers, Ends& stream,
               const Traffic& traffic, const std::vector<SchemaDoc>& docs,
               const SetupStats& stats, Figures& figures, Ops& ops) {
  const double rest = 1 - setup.share;
  session::SessionPair& pair = *stream.pair;
  pbio::Decoder decoder(stream.rx->registry());
  InPlace in_place;
  std::vector<Slice> slices = {
      setup,
      {rest * 2 / 3,
       [&](double budget) {
         stream_phase(pair, traffic, decoder, window, budget, figures, ops,
                      nullptr);
       }},
      {rest / 3,
       [&](double budget) {
         latency_phase(pair, traffic, decoder, budget, figures, ops);
       }},
  };
  if (options.trace)
    slices.push_back({rest / 4, [&](double budget) {
                        stream_phase(pair, traffic, decoder, window, budget,
                                     figures, ops, &in_place);
                      }});
  std::vector<DurableRound> rounds;  // kept for their replay rates
  for (int block = 0; block < kDurableBlocks; ++block) {
    run_interleaved(options.seconds * (1 - kDurableShare) / kDurableBlocks,
                    slices);
    durable_phase(traffic, stream.tx->registry(), options.work_dir + "/wal",
                  options.seconds * kDurableShare / kDurableBlocks, false,
                  figures, ops, rounds);
  }
  if (options.trace)
    trace_layers(options, traffic, stream.tx->registry(), workers, docs, stats,
                 in_place, figures, ops);
}

void trace_layers(const RunOptions& options, const Traffic& traffic,
                  pbio::FormatRegistry& sender_registry, std::size_t workers,
                  const std::vector<SchemaDoc>& docs, const SetupStats& stats,
                  const InPlace& in_place, Figures& figures, Ops& ops) {
  const double probes = options.seconds * 0.3;
  setup_layers(stats, figures);
  probe_pbio(traffic, sender_registry, workers, probes * 0.5, figures);
  probe_net(traffic, probes * 0.2, figures);
  probe_storage(traffic, options.work_dir + "/probe-log", probes * 0.15,
                figures);
  probe_schema(docs, probes * 0.15, figures);
  probe_flow_control(traffic, sender_registry, options.work_dir + "/wal",
                     probes * 0.1, figures, ops);
  stream_layers(in_place, figures);
  const StreamTotals& totals = figures.stream;
  figures.layer("net.frames_per_record", per(totals.frames, totals.records),
                "count");
  figures.layer("process.voluntary_switches",
                per(totals.voluntary_switches * 1000, totals.records),
                "per_1k_records");
}

}  // namespace perfbench

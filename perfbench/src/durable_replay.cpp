// durable_replay: a durable, flow-controlled session pair streams a mid-
// size hydrology record mix under SlowConsumerPolicy::kBlockWithDeadline,
// write-ahead logging every record; then a cold subscriber requests the
// whole history. Storage writes beside reads, and the pumped, credit-
// driven transmit path carries every record.
#include "hydrology/messages.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPoolRecords = 1024;
const std::vector<std::string> kTypes = {"FlowField", "Vis5dFrame",
                                         "StatSummary"};

void add_live_round(const DurableRound& round, Figures& figures) {
  figures.round_rate.push_back(static_cast<double>(round.records) /
                               round.live_s);
  figures.round_mb.push_back(static_cast<double>(round.native_bytes) /
                             round.live_s / 1e6);
  StreamTotals& totals = figures.stream;
  totals.records += static_cast<double>(round.records);
  totals.cpu_s += round.cpu_s;
  totals.wire_bytes += static_cast<double>(round.wire_bytes);
  totals.frames += static_cast<double>(round.frames);
  totals.voluntary_switches += static_cast<double>(round.voluntary_switches);
}

}  // namespace

void run_durable_replay(const RunOptions& options, Figures& figures,
                        Ops& ops) {
  DocServer server;
  const std::string schema = xmit::hydrology::hydrology_schema_xml();
  const std::string url = server.put("/schemas/hydrology.xsd", schema);

  // Ends over a flow-controlled pair whose sender logs to `log_dir` when
  // it is not empty.
  auto make_ends = [&](DiscoveryTally& tally, const std::string& log_dir) {
    Ends ends;
    ends.tx = std::make_unique<End>();
    ends.tx->load(url, tally);
    ends.tx->bind(kTypes, tally);
    ends.rx = std::make_unique<End>();
    ends.rx->load(url, tally);
    ends.rx->bind(kTypes, tally);
    auto pipe = expect(xmit::net::Channel::pipe(), "socketpair");
    ends.pair = std::make_unique<session::SessionPair>(session::SessionPair{
        session::MessageSession(std::move(pipe.first), ends.tx->registry(),
                                durable_sender_options(log_dir)),
        session::MessageSession(std::move(pipe.second), ends.rx->registry(),
                                flow_receiver_options())});
    expect_ok(ends.pair->a.durable_status(), "open write-ahead log");
    prime_flow_control(ends.pair->b);
    return ends;
  };
  // Set-ups and cold starts connect the flow-controlled pair without the
  // write-ahead log: opening a log fsyncs its catalog and every format in
  // it, and on the reference machine's shared disk that made set-up times
  // spread 0.3-0.5 of their median between runs (README.md). Durable
  // rounds open their logs outside any timed span.
  const Connect connect = [&](DiscoveryTally& tally) {
    return make_ends(tally, "");
  };

  // The latency ends (one record in flight over a durable pair), and the
  // record pool: half flow fields (0.5-2 KB), a quarter each of the
  // fixed frames; the first three records are one of each type.
  DiscoveryTally first_tally;
  Ends latency = make_ends(first_tally, options.work_dir + "/latency-wal");
  xmit::Rng rng(options.seed);
  GenOptions gen;
  gen.array_min = 64;
  gen.array_max = 256;
  std::vector<Record> pool;
  pool.reserve(kPoolRecords);
  for (std::size_t pick : type_mix(kPoolRecords, {2, 1, 1}, rng))
    pool.push_back(
        Record::generate(latency.tx->token(kTypes[pick]).format, rng, gen));
  std::vector<RecordTraffic::Entry> entries;
  entries.reserve(pool.size());
  for (const Record& record : pool) {
    const std::string& type = record.format()->name();
    entries.push_back({&record, latency.tx->token(type).encoder.get(),
                       latency.rx->token(type).format.get()});
  }
  RecordTraffic traffic(std::move(entries));

  SetupStats stats;
  const std::string wal = options.work_dir + "/wal";
  pbio::Decoder latency_decoder(latency.rx->registry());
  std::vector<DurableRound> rounds, traced_rounds;
  std::vector<Slice> slices = {
      setup_slice(0.1, connect, kTypes, traffic, server, figures, stats, ops),
      {0.6,
       [&](double budget) {
         const std::size_t before = rounds.size();
         durable_phase(traffic, latency.tx->registry(), wal, budget, false,
                       figures, ops, rounds);
         for (std::size_t r = before; r < rounds.size(); ++r)
           add_live_round(rounds[r], figures);
       }},
      {0.3,
       [&](double budget) {
         latency_phase(*latency.pair, traffic, latency_decoder, budget,
                       figures, ops);
       }},
  };
  Figures traced_figures;  // traced rounds feed only the layer figures
  if (options.trace)
    slices.push_back({0.3, [&](double budget) {
                        durable_phase(traffic, latency.tx->registry(), wal,
                                      budget, true, traced_figures, ops,
                                      traced_rounds);
                      }});
  run_interleaved(options.seconds, slices);
  if (!options.trace) return;

  InPlace in_place;
  for (const DurableRound& round : traced_rounds) {
    in_place.send_s += round.send_s;
    in_place.recv_s += round.recv_s;
    in_place.records += round.records;
    in_place.round_rate.push_back(static_cast<double>(round.records) /
                                  round.live_s);
  }
  trace_layers(options, traffic, latency.tx->registry(), 1,
               {{schema, pbio::ArchInfo::host()},
                {schema, pbio::ArchInfo::host()}},
               stats, in_place, figures, ops);
}

}  // namespace perfbench

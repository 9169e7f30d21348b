// small_stream: the hydrology control and statistics records over a
// plain MessageSession on a socketpair, host layout at both ends. Per-
// message cost dominates: framing, syscalls, sequencing and identity
// decode do almost all the work.
#include "hydrology/messages.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPoolRecords = 2048;
constexpr std::size_t kWindow = 32;
const std::vector<std::string> kTypes = {"ControlEvent", "StatSummary",
                                         "JoinRequest", "ASDOffEvent"};

}  // namespace

void run_small_stream(const RunOptions& options, Figures& figures, Ops& ops) {
  DocServer server;
  const std::string schema = xmit::hydrology::hydrology_schema_xml();
  const std::string url = server.put("/schemas/hydrology.xsd", schema);

  const Connect connect = [&](DiscoveryTally& tally) {
    Ends ends;
    ends.tx = std::make_unique<End>();
    ends.tx->load(url, tally);
    ends.tx->bind(kTypes, tally);
    ends.rx = std::make_unique<End>();
    ends.rx->load(url, tally);
    ends.rx->bind(kTypes, tally);
    ends.pair = std::make_unique<session::SessionPair>(
        expect(session::make_session_pipe(ends.tx->registry(),
                                          ends.rx->registry()),
               "session pair"));
    return ends;
  };

  // The streaming ends, and the record pool generated against them: a
  // quarter of each type, the first four one of each, the rest shuffled.
  DiscoveryTally first_tally;
  Ends stream = connect(first_tally);
  xmit::Rng rng(options.seed);
  GenOptions gen;
  gen.string_min = 2;
  gen.string_max = 40;
  std::vector<Record> pool;
  pool.reserve(kPoolRecords);
  for (std::size_t pick : type_mix(kPoolRecords, {1, 1, 1, 1}, rng))
    pool.push_back(
        Record::generate(stream.tx->token(kTypes[pick]).format, rng, gen));
  std::vector<RecordTraffic::Entry> entries;
  entries.reserve(pool.size());
  for (const Record& record : pool) {
    const std::string& type = record.format()->name();
    entries.push_back({&record, stream.tx->token(type).encoder.get(),
                       stream.rx->token(type).format.get()});
  }
  RecordTraffic traffic(std::move(entries));

  SetupStats stats;
  run_plain(options,
            setup_slice(0.1, connect, kTypes, traffic, server, figures, stats,
                        ops),
            kWindow, 1, stream, traffic,
            {{schema, pbio::ArchInfo::host()}, {schema, pbio::ArchInfo::host()}},
            stats, figures, ops);
}

}  // namespace perfbench

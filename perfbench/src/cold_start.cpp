// cold_start: every cold start begins from empty registries. Both ends
// discover a clean, generated schema set of a few hundred formats from
// a loopback HTTP server as one XMITSET1 fetch; the sender binds every
// type, opens a session and sends one record per format; the receiver
// adopts each format from its in-band announcement, builds and verifies
// the plan, and decodes. XML, XSD, XMIT, the registry, the plan verifier
// and HTTP do the work — the paper's remote-discovery cost at set scale.
#include <cstdio>

#include "analysis/schema_corpus.hpp"
#include "net/fetch.hpp"
#include "workloads.hpp"
#include "xmit/format_set.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kFamilies = 300;
constexpr std::size_t kRecordsPerType = 4;
constexpr std::size_t kWindow = 32;

}  // namespace

void run_cold_start(const RunOptions& options, Figures& figures, Ops& ops) {
  // The schema set: version 2 of each generated family, so the seed picks
  // each family's extra field type while the set's size stays fixed.
  const std::string corpus_dir = options.work_dir + "/corpus";
  xmit::analysis::CorpusOptions corpus;
  corpus.families = kFamilies;
  corpus.versions = 2;
  corpus.seed = options.seed;
  corpus.defect_every = 0;
  expect(xmit::analysis::generate_schema_corpus(corpus_dir, corpus),
         "generate schema corpus");
  std::vector<toolkit::SetEntry> entries;
  std::vector<SchemaDoc> docs;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    char family[16];
    std::snprintf(family, sizeof(family), "fam_%04zu", f);
    const std::string text = expect(
        xmit::net::read_file(corpus_dir + "/" + family + "/rec_v2.xsd"),
        "read corpus file");
    entries.push_back({toolkit::SetEntryKind::kSchemaDocument, family,
                       std::vector<std::uint8_t>(text.begin(), text.end())});
    docs.push_back({text, pbio::ArchInfo::host()});
  }
  const std::vector<SchemaDoc> one_end = docs;
  docs.insert(docs.end(), one_end.begin(), one_end.end());  // both ends
  const std::vector<std::uint8_t> blob = toolkit::build_format_set(entries);
  DocServer server;
  const std::string url =
      server.put("/sets/corpus.xmitset", std::string(blob.begin(), blob.end()),
                 "application/octet-stream");

  std::vector<std::string> types;
  const Connect connect = [&](DiscoveryTally& tally) {
    Ends ends;
    ends.tx = std::make_unique<End>();
    ends.tx->load_set(url, kFamilies, tally);
    if (types.empty()) types = ends.tx->xmit().loaded_types();
    ends.tx->bind(types, tally);
    ends.rx = std::make_unique<End>();
    ends.rx->load_set(url, kFamilies, tally);
    ends.rx->bind(types, tally);
    ends.pair = std::make_unique<session::SessionPair>(
        expect(session::make_session_pipe(ends.tx->registry(),
                                          ends.rx->registry()),
               "session pair"));
    return ends;
  };

  // The warm streaming ends and kRecordsPerType records per type,
  // generated against them (types are SharedHeader plus one record type
  // per family); the first record of each type drives the cold starts.
  DiscoveryTally first_tally;
  Ends stream = connect(first_tally);
  check(types.size() == kFamilies + 1,
        "schema set yielded " + std::to_string(types.size()) + " types");
  xmit::Rng rng(options.seed);
  GenOptions gen;
  gen.array_min = 4;
  gen.array_max = 32;
  std::vector<Record> pool;
  pool.reserve(types.size() * kRecordsPerType);
  for (std::size_t copy = 0; copy < kRecordsPerType; ++copy)
    for (const std::string& type : types)
      pool.push_back(Record::generate(stream.tx->token(type).format, rng, gen));
  std::vector<RecordTraffic::Entry> traffic_entries;
  for (const Record& record : pool) {
    const std::string& type = record.format()->name();
    traffic_entries.push_back({&record, stream.tx->token(type).encoder.get(),
                               stream.rx->token(type).format.get()});
  }
  RecordTraffic traffic(std::move(traffic_entries));

  SetupStats stats;
  run_plain(options,
            setup_slice(0.45, connect, types, traffic, server, figures, stats,
                        ops),
            kWindow, 1, stream, traffic, docs, stats, figures, ops);
}

}  // namespace perfbench

#include "probes.hpp"

#include <cstring>
#include <map>

#include "analysis/plan_verify.hpp"
#include "common/limits.hpp"
#include "net/channel.hpp"
#include "pbio/batch.hpp"
#include "pbio/wire.hpp"
#include "xml/parser.hpp"
#include "xmit/layout.hpp"
#include "xsd/parse.hpp"

namespace perfbench {
namespace {

double layer_value(const Figures& figures, const std::string& name) {
  auto it = figures.layers.find(name);
  if (it == figures.layers.end()) fail("layer " + name + " was not probed");
  return it->second.first;
}

pbio::FormatId wire_format_id(std::span<const std::uint8_t> wire) {
  return expect(pbio::parse_header(wire), "wire header").format_id;
}

}  // namespace

void probe_schema(const std::vector<SchemaDoc>& docs, double budget_s,
                  Figures& figures) {
  double parse_s = 0, schema_s = 0, layout_s = 0, register_s = 0;
  std::uint64_t text_bytes = 0, types = 0, formats = 0, passes = 0;
  const double start = now_s();
  do {
    pbio::FormatRegistry registry;
    for (const SchemaDoc& doc : docs) {
      const double t0 = now_s();
      auto dom = expect(xmit::xml::parse_document(doc.text), "parse XML");
      const double t1 = now_s();
      auto schema = expect(xmit::xsd::parse_schema_text(doc.text),
                           "parse schema");
      const double t2 = now_s();
      auto layouts = expect(xmit::toolkit::layout_schema(schema, doc.arch), "layout");
      const double t3 = now_s();
      for (const auto& layout : layouts)
        expect(registry.register_format(layout.name, layout.fields,
                                        layout.struct_size, doc.arch),
               "register " + layout.name);
      const double t4 = now_s();
      parse_s += t1 - t0;
      schema_s += t2 - t1;
      layout_s += t3 - t2;
      register_s += t4 - t3;
      text_bytes += doc.text.size();
      types += schema.types().size();
      formats += layouts.size();
    }
    ++passes;
  } while (now_s() - start < budget_s);
  const double p = static_cast<double>(passes);
  figures.layer("xml.parse_mb_per_s",
                static_cast<double>(text_bytes) / parse_s / 1e6, "MB/s");
  figures.layer("xsd.model_us_per_type",
                (schema_s - parse_s) * 1e6 / static_cast<double>(types), "us");
  figures.layer("xmit.translate_ms", layout_s * 1e3 / p, "ms");
  figures.layer("xmit.register_ms", register_s * 1e3 / p, "ms");
  figures.layer("pbio.register_us",
                register_s * 1e6 / static_cast<double>(formats), "us");
}

void probe_pbio(const Traffic& traffic,
                const pbio::FormatRegistry& sender_formats,
                std::size_t workers, double budget_s, Figures& figures) {
  const std::size_t n = traffic.size();
  const double slice = budget_s / 5;

  // Encode.
  {
    xmit::ByteBuffer scratch;
    std::vector<xmit::IoSlice> slices;
    double busy = 0;
    std::uint64_t records = 0;
    const double start = now_s();
    do {
      const double t0 = now_s();
      for (std::size_t i = 0; i < n; ++i)
        expect_ok(traffic.encode_iov(i, scratch, slices), "encode");
      busy += now_s() - t0;
      records += n;
    } while (now_s() - start < slice);
    figures.layer("pbio.encode_us", busy * 1e6 / static_cast<double>(records),
                  "us");
  }

  // Decode, warm plans.
  pbio::Decoder decoder(sender_formats);
  {
    StructSlot slot;
    xmit::Arena arena;
    double busy = 0;
    std::uint64_t records = 0, native = 0;
    const double start = now_s();
    do {
      const double t0 = now_s();
      for (std::size_t i = 0; i < n; ++i) {
        decode_record(traffic, i, traffic.wire(i), decoder, arena, slot);
        arena.rewind();
      }
      busy += now_s() - t0;
      records += n;
      for (std::size_t i = 0; i < n; ++i) native += traffic.native_bytes(i);
    } while (now_s() - start < slice);
    figures.layer("pbio.decode_us", busy * 1e6 / static_cast<double>(records),
                  "us");
    figures.layer("pbio.decode_mb_per_s",
                  static_cast<double>(native) / busy / 1e6, "MB/s");
  }

  // Registry lookups by the wire records' ids.
  {
    std::vector<pbio::FormatId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      ids.push_back(wire_format_id(traffic.wire(i)));
    std::uint64_t lookups = 0;
    double busy = 0;
    const double start = now_s();
    do {
      const double t0 = now_s();
      for (pbio::FormatId id : ids)
        check(sender_formats.by_id(id).is_ok(), "by_id miss");
      busy += now_s() - t0;
      lookups += ids.size();
    } while (now_s() - start < slice / 2);
    figures.layer("pbio.by_id_ns", busy * 1e9 / static_cast<double>(lookups),
                  "ns");
  }

  // Plan build (cold decode minus warm decode) and plan verification, on
  // the first record of every (sender, receiver) pair.
  {
    std::map<std::pair<pbio::FormatId, const pbio::Format*>, std::size_t> pairs;
    for (std::size_t i = 0; i < n; ++i)
      pairs.emplace(std::make_pair(wire_format_id(traffic.wire(i)),
                                   &traffic.receiver_format(i)),
                    i);
    std::vector<double> build_us;
    double verify_s = 0;
    std::uint64_t verified = 0;
    StructSlot slot;
    xmit::Arena arena;
    const double start = now_s();
    do {
      for (const auto& [key, i] : pairs) {
        pbio::Decoder fresh(sender_formats);
        const double t0 = now_s();
        decode_record(traffic, i, traffic.wire(i), fresh, arena, slot);
        const double t1 = now_s();
        decode_record(traffic, i, traffic.wire(i), fresh, arena, slot);
        const double t2 = now_s();
        arena.rewind();
        build_us.push_back(((t1 - t0) - (t2 - t1)) * 1e6);

        auto sender = expect(sender_formats.by_id(key.first), "sender format");
        auto view = expect(fresh.plan_view(sender, *key.second), "plan view");
        const double v0 = now_s();
        auto findings = xmit::analysis::verify_plan(view, *sender, *key.second);
        verify_s += now_s() - v0;
        ++verified;
        check(findings.empty(), "plan verifier rejected the " +
                                    sender->name() + " plan");
      }
    } while (now_s() - start < slice);
    figures.layer("pbio.plan_build_us", median(build_us), "us");
    figures.layer("analysis.verify_us",
                  verify_s * 1e6 / static_cast<double>(verified), "us");
  }

  // Batch decode, one batch per receiver format.
  {
    std::map<const pbio::Format*, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i)
      groups[&traffic.receiver_format(i)].push_back(i);
    pbio::BatchDecoder batch(decoder, workers);
    std::vector<std::max_align_t> out;
    std::vector<std::span<const std::uint8_t>> spans;
    double busy = 0;
    std::uint64_t records = 0;
    const double start = now_s();
    do {
      for (const auto& [receiver, members] : groups) {
        const std::size_t stride =
            (receiver->struct_size() + sizeof(std::max_align_t) - 1) /
            sizeof(std::max_align_t) * sizeof(std::max_align_t);
        out.resize(stride * members.size() / sizeof(std::max_align_t) + 1);
        spans.clear();
        for (std::size_t i : members) spans.push_back(traffic.wire(i));
        const double t0 = now_s();
        expect_ok(batch.decode_batch(spans, *receiver, out.data(), stride),
                  "batch decode");
        busy += now_s() - t0;
        auto* base = reinterpret_cast<const std::uint8_t*>(out.data());
        for (std::size_t k = 0; k < members.size(); ++k)
          traffic.check_decoded(members[k], base + k * stride);
        records += members.size();
      }
    } while (now_s() - start < slice);
    figures.layer("pbio.batch_records_per_s",
                  static_cast<double>(records) / busy, "records/s");
  }
}

void probe_net(const Traffic& traffic, double budget_s, Figures& figures) {
  auto pipe = expect(xmit::net::Channel::pipe(), "socketpair");
  const std::size_t n = traffic.size();
  // Sends a window, then receives it: bounded in frames as well as bytes,
  // since every small frame costs a whole socket-buffer allocation.
  constexpr std::size_t kWindowBytes = 64 * 1024;
  constexpr std::size_t kWindowFrames = 32;
  std::uint8_t head[9] = {0x02};
  std::vector<std::uint8_t> frame;
  double send_s = 0, recv_s = 0;
  std::uint64_t frames = 0, seq = 0;
  const double start = now_s();
  do {
    std::size_t i = 0;
    while (i < n) {
      std::size_t end = i, bytes = 0;
      while (end < n &&
             (end == i || (end - i < kWindowFrames &&
                           bytes + traffic.wire(end).size() <= kWindowBytes)))
        bytes += traffic.wire(end++).size();
      for (std::size_t k = i; k < end; ++k) {
        ++seq;
        std::memcpy(head + 1, &seq, sizeof(seq));
        const auto wire = traffic.wire(k);
        const xmit::IoSlice slices[2] = {{head, sizeof(head)},
                                         {wire.data(), wire.size()}};
        const double t0 = now_s();
        expect_ok(pipe.first.send_gather(slices), "send_gather");
        send_s += now_s() - t0;
      }
      for (std::size_t k = i; k < end; ++k) {
        const double t0 = now_s();
        expect_ok(pipe.second.receive_into(frame, 10000), "receive_into");
        recv_s += now_s() - t0;
        check(frame.size() == traffic.wire(k).size() + sizeof(head),
              "net probe frame size");
      }
      frames += end - i;
      i = end;
    }
  } while (now_s() - start < budget_s);
  figures.layer("net.send_us", send_s * 1e6 / static_cast<double>(frames),
                "us");
  figures.layer("net.recv_us", recv_s * 1e6 / static_cast<double>(frames),
                "us");
}

void probe_storage(const Traffic& traffic, const std::string& dir,
                   double budget_s, Figures& figures) {
  constexpr std::uint64_t kMaxLogBytes = 64u << 20;
  fresh_dir(dir);
  storage::LogOptions options;
  options.fsync = kDurableFsync;
  const std::size_t n = traffic.size();
  std::uint64_t appended = 0, bytes = 0;
  double append_s = 0;
  {
    auto log = expect(storage::RecordLog::open(dir, options,
                                               xmit::DecodeLimits::defaults()),
                      "open record log");
    const double start = now_s();
    do {
      for (std::size_t i = 0; i < n; ++i) {
        const auto wire = traffic.wire(i);
        const double t0 = now_s();
        expect_ok(log.append(appended + 1, wire_format_id(wire), wire),
                  "append");
        append_s += now_s() - t0;
        ++appended;
        bytes += wire.size();
      }
    } while (now_s() - start < budget_s / 2 && bytes < kMaxLogBytes);
    expect_ok(log.sync(), "sync");

    auto cursor = log.read_from(1);
    storage::RecordLog::Item item;
    std::uint64_t scanned = 0;
    const double t0 = now_s();
    while (expect(cursor.next(&item), "scan")) {
      check(item.seq == scanned + 1, "scan out of order");
      ++scanned;
    }
    const double scan_s = now_s() - t0;
    check(scanned == appended, "scan count != appended");
    figures.layer("storage.scan_records_per_s",
                  static_cast<double>(scanned) / scan_s, "records/s");
  }
  const std::uint64_t log_bytes = segment_bytes(dir);
  figures.layer("storage.append_us",
                append_s * 1e6 / static_cast<double>(appended), "us");
  figures.layer("storage.log_bytes_per_record",
                static_cast<double>(log_bytes) / static_cast<double>(appended),
                "B");
}

void setup_layers(const SetupStats& stats, Figures& figures) {
  figures.layer("net.http_fetch_ms", median(stats.fetch_ms), "ms");
  figures.layer("net.http_requests", median(stats.http_requests), "count");
  figures.layer("xmit.bind_us", median(stats.bind_us_per_type), "us");
  figures.layer("session.metadata_bytes", median(stats.metadata_bytes), "B");
  figures.layer("session.announcements", median(stats.announcements),
                "count");
  figures.layer("pbio.plan_cache_misses", median(stats.plan_misses), "count");
}

void probe_flow_control(const Traffic& traffic,
                        pbio::FormatRegistry& sender_registry,
                        const std::string& dir, double budget_s,
                        Figures& figures, Ops& ops) {
  std::vector<DurableRound> rounds;
  const double start = now_s();
  do {
    rounds.push_back(durable_round(traffic, sender_registry, dir, false,
                                   /*pressure=*/true, ops));
  } while (now_s() - start < budget_s);
  double peak = 0, block = 0, grants = 0, records = 0;
  for (const DurableRound& round : rounds) {
    peak = std::max(peak, static_cast<double>(round.queue_peak));
    block += round.block_ms;
    grants += static_cast<double>(round.credit_grants);
    records += static_cast<double>(round.records);
  }
  figures.layer("session.queue_depth_peak", peak, "records");
  figures.layer("session.block_ms",
                per(block, static_cast<double>(rounds.size())), "ms");
  figures.layer("session.credit_grants", per(grants * 1000, records),
                "per_1k_records");
}

void stream_layers(const InPlace& in_place, Figures& figures) {
  const double records = static_cast<double>(in_place.records);
  const double send_us = in_place.send_s * 1e6 / records;
  const double recv_us = in_place.recv_s * 1e6 / records;
  figures.layer("session.send_us", send_us, "us");
  figures.layer("session.recv_us", recv_us, "us");
  figures.layer("session.self_us",
                send_us + recv_us - layer_value(figures, "pbio.encode_us") -
                    layer_value(figures, "pbio.decode_us") -
                    layer_value(figures, "net.send_us") -
                    layer_value(figures, "net.recv_us"),
                "us");
  const double untraced_us = 1e6 / trimmed_mean(figures.round_rate);
  const double traced_us = 1e6 / trimmed_mean(in_place.round_rate);
  figures.layer("session.unexplained_us", untraced_us - (send_us + recv_us),
                "us");
  figures.layer("trace.overhead_pct",
                (traced_us - untraced_us) / untraced_us * 100, "%");
}

}  // namespace perfbench

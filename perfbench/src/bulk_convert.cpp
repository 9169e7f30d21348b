// bulk_convert: SimpleData records of 10000 floats forged by a big-endian
// 64-bit sender (RecordBuilder over an ArchInfo::big_endian_64() layout)
// and sent with send_encoded; a host receiver decodes them through
// receive_batch into a layout that widens the floats to doubles. Bytes
// dominate: the swap and fused-convert kernels and BatchDecoder do the
// work, per-message session cost is diluted.
#include <cstring>

#include "hydrology/messages.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kElements = 10000;
constexpr std::size_t kPoolRecords = 32;
// One decode worker: receive_batch decodes each window on the caller's
// thread. Two workers measured slower here (48k against 56k records/s)
// and unsteady (27k-41k between runs of one build): the hand-off to the
// pool costs more than it saves on four records (README.md).
constexpr std::size_t kWorkers = 1;
// Records per stream window: four 40 KB frames fit one socket buffer, so
// a receive_batch() drain never meets a frame that is still arriving
// (README.md: a drain that does corrupts the stream).
constexpr std::size_t kWindow = 4;
const std::vector<std::string> kTypes = {"SimpleData"};

// The receiver's view of SimpleData: the same element names, with the
// grid widened to double.
const char kWideSchema[] = R"(<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="SimpleData">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="data" type="xsd:double"
                 minOccurs="0" maxOccurs="*"
                 dimensionPlacement="before" dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
)";

std::uint32_t offset_of(const pbio::Format& format, const char* path) {
  const pbio::FlatField* field = format.flat_field(path);
  if (field == nullptr) fail(format.name() + " has no field " + path);
  return field->offset;
}

std::size_t stride_of(const pbio::Format& format) {
  return (format.struct_size() + sizeof(std::max_align_t) - 1) /
         sizeof(std::max_align_t) * sizeof(std::max_align_t);
}

// Foreign-layout traffic: wire records built for the big-endian sender,
// checked after widening against the generator's values.
class BulkTraffic : public Traffic {
 public:
  BulkTraffic(pbio::FormatPtr sender, pbio::FormatPtr receiver,
              pbio::FormatPtr host_twin, xmit::Rng& rng)
      : sender_(std::move(sender)),
        receiver_(std::move(receiver)),
        twin_(std::move(host_twin)),
        twin_encoder_(expect(pbio::Encoder::make(twin_), "twin encoder")) {
    const std::uint32_t twin_timestep = offset_of(*twin_, "timestep");
    const std::uint32_t twin_size = offset_of(*twin_, "size");
    const std::uint32_t twin_data = offset_of(*twin_, "data");
    for (std::size_t i = 0; i < kPoolRecords; ++i) {
      Expected want;
      want.timestep = static_cast<std::int32_t>(rng.next_u32() >> 1);
      want.data.resize(kElements);
      want.narrow.resize(kElements);
      for (std::size_t e = 0; e < kElements; ++e) {
        // k/64 with |k| < 2^20: exact as float and as double.
        want.data[e] =
            static_cast<double>(rng.range(-(1 << 20), (1 << 20) - 1)) / 64.0;
        want.narrow[e] = static_cast<float>(want.data[e]);
      }
      pbio::RecordBuilder builder(sender_);
      expect_ok(builder.set_int("timestep", want.timestep), "set timestep");
      expect_ok(builder.set_float_array("data", want.data), "set data");
      wire_.push_back(expect(builder.build(), "build record"));
      const auto header = expect(pbio::parse_record(wire_.back()), "header");
      check(header.byte_order == xmit::ByteOrder::kBig &&
                header.pointer_size == 8,
            "forged record is not big-endian 64-bit");
      check(wire_.back().size() == pbio::WireHeader::kSize +
                                       sender_->struct_size() +
                                       kElements * sizeof(float),
            "wire record length differs from the big-endian layout's size");

      want.twin.assign(
          (twin_->struct_size() + sizeof(std::max_align_t) - 1) /
              sizeof(std::max_align_t),
          std::max_align_t{});
      auto* base = reinterpret_cast<std::uint8_t*>(want.twin.data());
      const std::int32_t size = static_cast<std::int32_t>(kElements);
      const float* data = want.narrow.data();
      std::memcpy(base + twin_timestep, &want.timestep, sizeof(std::int32_t));
      std::memcpy(base + twin_size, &size, sizeof(size));
      std::memcpy(base + twin_data, &data, sizeof(data));
      expected_.push_back(std::move(want));
    }
    timestep_ = offset_of(*receiver_, "timestep");
    size_ = offset_of(*receiver_, "size");
    data_ = offset_of(*receiver_, "data");
  }

  std::size_t size() const override { return wire_.size(); }
  std::span<const std::uint8_t> wire(std::size_t i) const override {
    return wire_[i];
  }
  std::size_t native_bytes(std::size_t) const override {
    return receiver_->struct_size() + kElements * sizeof(double);
  }
  const pbio::Format& receiver_format(std::size_t) const override {
    return *receiver_;
  }
  xmit::Status send(session::MessageSession& session,
                    std::size_t i) const override {
    return session.send_encoded(*sender_, wire_[i]);
  }
  xmit::Status send_as(session::MessageSession& session, std::size_t i,
                       const toolkit::BindingToken& sender) const override {
    return session.send_encoded(*sender.format, wire_[i]);
  }
  // Every record has the one receiver format: the window is drained by
  // receive_batch() into slots[0], one struct per stride.
  void receive(session::MessageSession& receiver,
               std::span<const pbio::Format* const> formats,
               const pbio::Decoder&, xmit::Arena&, StructSlot* slots,
               const void** out) const override {
    const pbio::Format& format = *formats[0];
    const std::size_t count = formats.size();
    const std::size_t stride = stride_of(format);
    auto* base = static_cast<std::uint8_t*>(slots[0].reserve(stride * count));
    std::size_t got = 0;
    while (got < count)
      got += expect(receiver.receive_batch(format, base + got * stride, stride,
                                           count - got, 10000),
                    "receive_batch");
    for (std::size_t j = 0; j < count; ++j) out[j] = base + j * stride;
  }
  void check_decoded(std::size_t i, const void* decoded) const override {
    const auto* base = static_cast<const std::uint8_t*>(decoded);
    std::int32_t timestep = 0, size = 0;
    const double* data = nullptr;
    std::memcpy(&timestep, base + timestep_, sizeof(timestep));
    std::memcpy(&size, base + size_, sizeof(size));
    std::memcpy(&data, base + data_, sizeof(data));
    const Expected& want = expected_[i];
    check(timestep == want.timestep && size == static_cast<int>(kElements),
          "bulk record " + std::to_string(i) + " header fields differ");
    check(data != nullptr && std::memcmp(data, want.data.data(),
                                         kElements * sizeof(double)) == 0,
          "bulk record " + std::to_string(i) + " widened data differs");
  }
  xmit::Status encode_iov(std::size_t i, xmit::ByteBuffer& scratch,
                          std::vector<xmit::IoSlice>& slices) const override {
    return twin_encoder_.encode_iov(expected_[i].twin.data(), scratch, slices);
  }

 private:
  struct Expected {
    std::int32_t timestep = 0;
    std::vector<double> data;
    std::vector<float> narrow;               // host twin payload
    std::vector<std::max_align_t> twin;      // host twin struct
  };

  pbio::FormatPtr sender_, receiver_, twin_;
  pbio::Encoder twin_encoder_;
  std::vector<std::vector<std::uint8_t>> wire_;
  std::vector<Expected> expected_;
  std::uint32_t timestep_ = 0, size_ = 0, data_ = 0;
};

session::SessionOptions receiver_options() {
  session::SessionOptions options;
  options.batch_decode_workers = kWorkers;
  return options;
}

}  // namespace

void run_bulk_convert(const RunOptions& options, Figures& figures, Ops& ops) {
  DocServer server;
  const std::string schema = xmit::hydrology::hydrology_schema_xml();
  const std::string wide = kWideSchema;
  const std::string url = server.put("/schemas/hydrology.xsd", schema);
  const std::string wide_url = server.put("/schemas/simple_wide.xsd", wide);

  const Connect connect = [&](DiscoveryTally& tally) {
    Ends ends;
    ends.tx = std::make_unique<End>(pbio::ArchInfo::big_endian_64());
    ends.tx->load(url, tally);
    ends.tx->bind(kTypes, tally);
    ends.rx = std::make_unique<End>();
    ends.rx->load(wide_url, tally);
    ends.rx->bind(kTypes, tally);
    ends.pair = std::make_unique<session::SessionPair>(
        expect(session::make_session_pipe(ends.tx->registry(),
                                          ends.rx->registry(),
                                          receiver_options()),
               "session pair"));
    // A window that cannot fit the socket buffer must fail, not hang.
    ends.pair->a.channel().set_send_deadline(10000);
    return ends;
  };

  DiscoveryTally first_tally;
  Ends stream = connect(first_tally);
  End twin;  // host-layout SimpleData, for the encode probe only
  DiscoveryTally twin_tally;
  twin.load(url, twin_tally);
  twin.bind(kTypes, twin_tally);
  xmit::Rng rng(options.seed);
  BulkTraffic traffic(stream.tx->token("SimpleData").format,
                      stream.rx->token("SimpleData").format,
                      twin.token("SimpleData").format, rng);
  check(stream.rx->token("SimpleData").format->id() !=
            stream.tx->token("SimpleData").format->id(),
        "sender and receiver layouts should differ");

  SetupStats stats;
  run_plain(options,
            setup_slice(0.1, connect, kTypes, traffic, server, figures, stats,
                        ops),
            kWindow, kWorkers, stream, traffic,
            {{schema, pbio::ArchInfo::big_endian_64()},
             {wide, pbio::ArchInfo::host()}},
            stats, figures, ops);
}

}  // namespace perfbench

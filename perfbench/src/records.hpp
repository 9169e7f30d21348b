// Seeded record generation and field-by-field checking over any host
// PBIO format, plus the Traffic interface every workload's stream
// implements so the shared phases (streaming, latency, durable replay,
// layer probes) can drive it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/format.hpp"
#include "session/session.hpp"
#include "xmit/xmit.hpp"

namespace perfbench {

namespace pbio = xmit::pbio;

// Shape knobs for generated values.
struct GenOptions {
  std::size_t string_min = 4;
  std::size_t string_max = 24;
  std::size_t array_min = 8;
  std::size_t array_max = 32;
};

// One in-memory struct for a host format, with its out-of-line strings
// and arrays owned alongside. Move-only; the struct image and every
// pointer it holds keep their addresses across moves.
class Record {
 public:
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  Record(Record&&) = default;
  Record& operator=(Record&&) = default;

  // Fills every flattened field with seeded values. Floats are k/64 for
  // integer k, so they survive any float/double conversion exactly.
  static Record generate(pbio::FormatPtr format, xmit::Rng& rng,
                         const GenOptions& options);

  const pbio::FormatPtr& format() const { return format_; }
  const void* data() const { return storage_.data(); }
  // Struct plus out-of-line payload (strings with their NUL) — the bytes
  // a receiver holds once the record is decoded.
  std::size_t native_bytes() const { return native_bytes_; }

  // Field-by-field comparison of a decoded struct laid out like
  // format(): scalars and fixed arrays bytewise, strings by content,
  // dynamic arrays by count and payload. Padding is not compared.
  // Returns an empty string on equality, else the first difference.
  std::string compare(const void* decoded) const;

 private:
  Record() = default;

  pbio::FormatPtr format_;
  std::vector<std::max_align_t> storage_;
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_;
  std::size_t native_bytes_ = 0;
};

// A seeded type sequence of `records` entries over `types` with exact
// shares (weights[k] of every sum(weights)): one of each type first, the
// rest shuffled.
std::vector<std::size_t> type_mix(std::size_t records,
                                  const std::vector<std::size_t>& weights,
                                  xmit::Rng& rng);

// A decode target sized and aligned for any receiver struct.
class StructSlot {
 public:
  void* reserve(std::size_t bytes) {
    const std::size_t words =
        (bytes + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
    if (storage_.size() < words) storage_.resize(words);
    return storage_.data();
  }

 private:
  std::vector<std::max_align_t> storage_;
};

// One workload's record stream. A round is records 0..size()-1 in order;
// every phase sends whole rounds.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual std::size_t size() const = 0;
  // The complete wire record (PBIO header included) record i travels as.
  virtual std::span<const std::uint8_t> wire(std::size_t i) const = 0;
  // Native bytes record i decodes to.
  virtual std::size_t native_bytes(std::size_t i) const = 0;
  // The receiver's format for record i (decode target).
  virtual const pbio::Format& receiver_format(std::size_t i) const = 0;
  // Sends record i the way the workload's application does.
  virtual xmit::Status send(xmit::session::MessageSession& session,
                            std::size_t i) const = 0;
  // Sends record i as an application bound through `sender` does (a cold
  // start's fresh binding rather than the stream's).
  virtual xmit::Status send_as(xmit::session::MessageSession& session,
                               std::size_t i,
                               const xmit::toolkit::BindingToken& sender)
      const = 0;
  // Receives the next formats.size() records at `receiver` and decodes
  // record j as *formats[j]; out[j] is its struct, in slots[j] with
  // out-of-line data in `arena` or the session. The default takes each
  // record with receive_view() and decodes it with `decoder`.
  virtual void receive(xmit::session::MessageSession& receiver,
                       std::span<const pbio::Format* const> formats,
                       const pbio::Decoder& decoder, xmit::Arena& arena,
                       StructSlot* slots, const void** out) const;
  // Checks a decoded struct (laid out by receiver_format(i)) against
  // what the generator made for record i; fails the run otherwise.
  virtual void check_decoded(std::size_t i, const void* decoded) const = 0;
  // Encodes record i in isolation (the pbio.encode_us probe). Traffic
  // with no host-layout encoder (foreign senders) re-encodes the same
  // values through a host-layout twin.
  virtual xmit::Status encode_iov(std::size_t i, xmit::ByteBuffer& scratch,
                                  std::vector<xmit::IoSlice>& slices) const = 0;
};

// Fails the run unless `bytes` is byte for byte the wire record i.
void check_wire(const Traffic& traffic, std::size_t i,
                std::span<const std::uint8_t> bytes);

// Decodes received record i into `slot` (out-of-line data in `arena`).
const void* decode_record(const Traffic& traffic, std::size_t i,
                          std::span<const std::uint8_t> bytes,
                          const pbio::Decoder& decoder, xmit::Arena& arena,
                          StructSlot& slot);

// Traffic over generated host-layout records: each record sends through
// the encoder bound for its format, and decodes into a receiver format
// with the identical layout.
class RecordTraffic : public Traffic {
 public:
  struct Entry {
    const Record* record = nullptr;
    const pbio::Encoder* encoder = nullptr;  // sender binding
    const pbio::Format* receiver = nullptr;  // receiver binding
  };
  // Encodes every entry once to pin down its expected wire bytes.
  explicit RecordTraffic(std::vector<Entry> entries);

  std::size_t size() const override { return entries_.size(); }
  std::span<const std::uint8_t> wire(std::size_t i) const override {
    return wire_[i];
  }
  std::size_t native_bytes(std::size_t i) const override {
    return entries_[i].record->native_bytes();
  }
  const pbio::Format& receiver_format(std::size_t i) const override {
    return *entries_[i].receiver;
  }
  xmit::Status send(xmit::session::MessageSession& session,
                    std::size_t i) const override {
    return session.send(*entries_[i].encoder, entries_[i].record->data());
  }
  xmit::Status send_as(xmit::session::MessageSession& session, std::size_t i,
                       const xmit::toolkit::BindingToken& sender)
      const override {
    return session.send(*sender.encoder, entries_[i].record->data());
  }
  void check_decoded(std::size_t i, const void* decoded) const override;
  xmit::Status encode_iov(std::size_t i, xmit::ByteBuffer& scratch,
                          std::vector<xmit::IoSlice>& slices) const override {
    return entries_[i].encoder->encode_iov(entries_[i].record->data(),
                                           scratch, slices);
  }

 private:
  std::vector<Entry> entries_;
  std::vector<std::vector<std::uint8_t>> wire_;
};

}  // namespace perfbench

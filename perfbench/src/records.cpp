#include "records.hpp"

#include <cstring>

#include "util.hpp"

namespace perfbench {
namespace {

using xmit::pbio::ArrayMode;
using xmit::pbio::FieldKind;
using xmit::pbio::FlatField;

void fill_scalar(std::uint8_t* slot, FieldKind kind, std::uint32_t size,
                 xmit::Rng& rng) {
  switch (kind) {
    case FieldKind::kInteger:
    case FieldKind::kUnsigned: {
      const std::uint64_t bits = rng.next_u64();
      std::memcpy(slot, &bits, size);  // host order is little-endian here
      return;
    }
    case FieldKind::kFloat: {
      // k/64 with |k| < 2^20: exact in float and in double.
      const double value =
          static_cast<double>(rng.range(-(1 << 20), (1 << 20) - 1)) / 64.0;
      if (size == 4) {
        const float narrow = static_cast<float>(value);
        std::memcpy(slot, &narrow, 4);
      } else {
        std::memcpy(slot, &value, 8);
      }
      return;
    }
    case FieldKind::kChar:
      *slot = static_cast<std::uint8_t>('a' + rng.below(26));
      return;
    case FieldKind::kBoolean: {
      std::memset(slot, 0, size);
      *slot = static_cast<std::uint8_t>(rng.below(2));
      return;
    }
    default:
      fail("generator cannot fill field kind " +
           std::string(xmit::pbio::field_kind_name(kind)));
  }
}

void store_pointer(std::uint8_t* slot, const void* pointer) {
  std::memcpy(slot, &pointer, sizeof(pointer));
}

const std::uint8_t* load_pointer(const std::uint8_t* slot) {
  const std::uint8_t* pointer = nullptr;
  std::memcpy(&pointer, slot, sizeof(pointer));
  return pointer;
}

std::uint64_t load_count(const std::uint8_t* base, const FlatField& field) {
  std::uint64_t count = 0;
  std::memcpy(&count, base + field.count_offset, field.count_size);
  return count;
}

}  // namespace

Record Record::generate(pbio::FormatPtr format, xmit::Rng& rng,
                        const GenOptions& options) {
  Record record;
  const std::size_t words = (format->struct_size() + sizeof(std::max_align_t) -
                             1) / sizeof(std::max_align_t);
  record.storage_.assign(words == 0 ? 1 : words, std::max_align_t{});
  auto* base = reinterpret_cast<std::uint8_t*>(record.storage_.data());
  std::memset(base, 0, record.storage_.size() * sizeof(std::max_align_t));
  record.native_bytes_ = format->struct_size();

  // Scalars, fixed arrays and strings first; dynamic arrays afterwards so
  // their counts overwrite whatever the count fields were filled with.
  for (const FlatField& field : format->flat_fields()) {
    if (field.array_mode == ArrayMode::kDynamic) continue;
    const std::size_t elements =
        field.array_mode == ArrayMode::kFixed ? field.fixed_count : 1;
    for (std::size_t e = 0; e < elements; ++e) {
      std::uint8_t* slot = base + field.offset + e * field.size;
      if (field.kind == FieldKind::kString) {
        const std::size_t length = static_cast<std::size_t>(rng.range(
            static_cast<std::int64_t>(options.string_min),
            static_cast<std::int64_t>(options.string_max)));
        const std::string text = rng.identifier(length);
        auto owned = std::make_unique<std::uint8_t[]>(length + 1);
        std::memcpy(owned.get(), text.c_str(), length + 1);
        store_pointer(slot, owned.get());
        record.owned_.push_back(std::move(owned));
        record.native_bytes_ += length + 1;
      } else {
        fill_scalar(slot, field.kind, field.size, rng);
      }
    }
  }
  for (const FlatField& field : format->flat_fields()) {
    if (field.array_mode != ArrayMode::kDynamic) continue;
    check(field.kind != FieldKind::kString,
          "generator does not build dynamic string arrays (" + field.path +
              ")");
    const std::uint64_t count = static_cast<std::uint64_t>(
        rng.range(static_cast<std::int64_t>(options.array_min),
                  static_cast<std::int64_t>(options.array_max)));
    const std::size_t bytes = count * field.size;
    auto owned = std::make_unique<std::uint8_t[]>(bytes == 0 ? 1 : bytes);
    for (std::uint64_t e = 0; e < count; ++e)
      fill_scalar(owned.get() + e * field.size, field.kind, field.size, rng);
    store_pointer(base + field.offset, owned.get());
    std::memcpy(base + field.count_offset, &count, field.count_size);
    record.owned_.push_back(std::move(owned));
    record.native_bytes_ += bytes;
  }
  record.format_ = std::move(format);
  return record;
}

std::string Record::compare(const void* decoded) const {
  const auto* want = reinterpret_cast<const std::uint8_t*>(storage_.data());
  const auto* got = static_cast<const std::uint8_t*>(decoded);
  for (const FlatField& field : format_->flat_fields()) {
    if (field.array_mode == ArrayMode::kDynamic) {
      const std::uint64_t count = load_count(want, field);
      if (load_count(got, field) != count) return field.path + " count";
      const std::uint8_t* a = load_pointer(want + field.offset);
      const std::uint8_t* b = load_pointer(got + field.offset);
      if (count == 0) continue;
      if (b == nullptr || std::memcmp(a, b, count * field.size) != 0)
        return field.path + " payload";
      continue;
    }
    const std::size_t elements =
        field.array_mode == ArrayMode::kFixed ? field.fixed_count : 1;
    if (field.kind == FieldKind::kString) {
      for (std::size_t e = 0; e < elements; ++e) {
        const auto* a = reinterpret_cast<const char*>(
            load_pointer(want + field.offset + e * field.size));
        const auto* b = reinterpret_cast<const char*>(
            load_pointer(got + field.offset + e * field.size));
        if ((a == nullptr) != (b == nullptr)) return field.path + " null";
        if (a != nullptr && std::strcmp(a, b) != 0) return field.path;
      }
      continue;
    }
    if (std::memcmp(want + field.offset, got + field.offset,
                    elements * field.size) != 0)
      return field.path;
  }
  return {};
}

std::vector<std::size_t> type_mix(std::size_t records,
                                  const std::vector<std::size_t>& weights,
                                  xmit::Rng& rng) {
  std::size_t total = 0;
  for (std::size_t weight : weights) total += weight;
  std::vector<std::size_t> mix;
  mix.reserve(records);
  for (std::size_t k = 0; k < weights.size(); ++k) mix.push_back(k);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    const std::size_t count = records * weights[k] / total - 1;
    mix.insert(mix.end(), count, k);
  }
  check(mix.size() == records, "type mix does not divide the pool evenly");
  for (std::size_t i = mix.size() - 1; i > weights.size(); --i)
    std::swap(mix[i], mix[weights.size() + rng.below(i - weights.size() + 1)]);
  return mix;
}

RecordTraffic::RecordTraffic(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  wire_.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    check(entry.encoder->format().id() == entry.record->format()->id(),
          "encoder bound to a different format than its record");
    wire_.push_back(expect(entry.encoder->encode_to_vector(entry.record->data()),
                           "encode " + entry.record->format()->name()));
  }
}

void RecordTraffic::check_decoded(std::size_t i, const void* decoded) const {
  const std::string diff = entries_[i].record->compare(decoded);
  if (!diff.empty())
    fail("record " + std::to_string(i) + " (" +
         entries_[i].record->format()->name() + ") differs at " + diff);
}

void check_wire(const Traffic& traffic, std::size_t i,
                std::span<const std::uint8_t> bytes) {
  const auto want = traffic.wire(i);
  if (bytes.size() != want.size() ||
      std::memcmp(bytes.data(), want.data(), want.size()) != 0)
    fail("wire bytes of record " + std::to_string(i) +
         " differ from the generator's encoding (lost, reordered or "
         "corrupted record)");
}

void Traffic::receive(xmit::session::MessageSession& receiver,
                      std::span<const pbio::Format* const> formats,
                      const pbio::Decoder& decoder, xmit::Arena& arena,
                      StructSlot* slots, const void** out) const {
  for (std::size_t j = 0; j < formats.size(); ++j) {
    auto view = expect(receiver.receive_view(10000), "receive");
    void* slot = slots[j].reserve(formats[j]->struct_size());
    const xmit::Status status =
        decoder.decode(view.bytes, *formats[j], slot, arena);
    if (!status.is_ok())
      fail("decode " + formats[j]->name() + ": " + status.to_string());
    out[j] = slot;
  }
}

const void* decode_record(const Traffic& traffic, std::size_t i,
                          std::span<const std::uint8_t> bytes,
                          const pbio::Decoder& decoder, xmit::Arena& arena,
                          StructSlot& slot) {
  const pbio::Format& receiver = traffic.receiver_format(i);
  void* out = slot.reserve(receiver.struct_size());
  const xmit::Status status = decoder.decode(bytes, receiver, out, arena);
  if (!status.is_ok())
    fail("decode record " + std::to_string(i) + ": " + status.to_string());
  return out;
}

}  // namespace perfbench

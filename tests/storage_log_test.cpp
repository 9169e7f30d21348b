// Tier-1 coverage for the durable storage layer: CRC32C, frame round
// trips, segment rotation/retention, index-accelerated seeks, torn-tail
// and corruption recovery, fault-injected append failures, the format
// catalog, and session-meta persistence.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "pbio/batch.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/registry.hpp"
#include "storage/catalog.hpp"
#include "storage/crc32c.hpp"
#include "storage/framing.hpp"
#include "storage/io.hpp"
#include "storage/log.hpp"

namespace xmit::storage {
namespace {

// A unique scratch directory per test, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/xmit_storage_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> payload_for(std::uint64_t seq) {
  // Variable-length, content derived from seq so replay can verify both.
  std::vector<std::uint8_t> bytes(8 + (seq % 97));
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>((seq * 31 + i) & 0xFF);
  return bytes;
}

LogOptions small_segments() {
  LogOptions options;
  options.segment_bytes = 512;  // force frequent rotation
  options.index_every_bytes = 128;
  return options;
}

RecordLog must_open(const std::string& dir,
                    const LogOptions& options = LogOptions{}) {
  auto log = RecordLog::open(dir, options, DecodeLimits::defaults());
  EXPECT_TRUE(log.is_ok()) << log.status().to_string();
  return std::move(log).value();
}

void append_script(RecordLog& log, std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t seq = from; seq <= to; ++seq) {
    const auto bytes = payload_for(seq);
    ASSERT_TRUE(
        log.append(seq, /*format_id=*/seq % 3 + 1,
                   std::span<const std::uint8_t>(bytes.data(), bytes.size()))
            .is_ok());
  }
}

void expect_replay(RecordLog& log, std::uint64_t from, std::uint64_t to) {
  auto cursor = log.read_from(from);
  RecordLog::Item item;
  for (std::uint64_t seq = from; seq <= to; ++seq) {
    auto more = cursor.next(&item);
    ASSERT_TRUE(more.is_ok()) << more.status().to_string();
    ASSERT_TRUE(more.value()) << "cursor ended early at seq " << seq;
    EXPECT_EQ(item.seq, seq);
    EXPECT_EQ(item.format_id, seq % 3 + 1);
    const auto want = payload_for(seq);
    ASSERT_EQ(item.payload.size(), want.size());
    EXPECT_EQ(std::memcmp(item.payload.data(), want.data(), want.size()), 0);
  }
  auto more = cursor.next(&item);
  ASSERT_TRUE(more.is_ok());
  EXPECT_FALSE(more.value());
}

TEST(Crc32c, KnownAnswerAndStreaming) {
  // RFC 3720 test vector: crc32c("123456789") == 0xE3069283.
  const char* digits = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(digits), 9);
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  // Streaming across an arbitrary split equals the one-shot value.
  std::uint32_t crc = crc32c_extend(kCrc32cSeed, bytes.subspan(0, 4));
  crc = crc32c_extend(crc, bytes.subspan(4));
  EXPECT_EQ(crc, 0xE3069283u);
  // All-zero input must not map to the seed (catches a broken table).
  const std::uint8_t zeros[32] = {};
  EXPECT_NE(crc32c({zeros, sizeof(zeros)}), 0u);
}

TEST(RecordLog, RoundTripAndReopen) {
  TempDir dir;
  {
    auto log = must_open(dir.path());
    EXPECT_TRUE(log.empty());
    append_script(log, 1, 40);
    EXPECT_EQ(log.first_seq(), 1u);
    EXPECT_EQ(log.last_seq(), 40u);
    EXPECT_EQ(log.synced_seq(), 40u);  // kAlways
    expect_replay(log, 1, 40);
    expect_replay(log, 17, 40);
  }
  auto log = must_open(dir.path());
  EXPECT_EQ(log.first_seq(), 1u);
  EXPECT_EQ(log.last_seq(), 40u);
  EXPECT_EQ(log.recovered_bytes_dropped(), 0u);
  expect_replay(log, 1, 40);
  append_script(log, 41, 45);
  expect_replay(log, 41, 45);
}

TEST(RecordLog, RefusesGapsAndZeroSeq) {
  TempDir dir;
  auto log = must_open(dir.path());
  const std::uint8_t byte = 7;
  EXPECT_EQ(log.append(0, 1, std::span<const std::uint8_t>(&byte, 1)).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(log.append(5, 1, std::span<const std::uint8_t>(&byte, 1))
                  .is_ok());  // first seq is free
  EXPECT_EQ(log.append(7, 1, std::span<const std::uint8_t>(&byte, 1)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(log.append(5, 1, std::span<const std::uint8_t>(&byte, 1)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(log.append(6, 1, std::span<const std::uint8_t>(&byte, 1)).is_ok());
}

TEST(RecordLog, RefusesRecordOverFrameBudget) {
  TempDir dir;
  DecodeLimits limits = DecodeLimits::defaults();
  limits.max_message_bytes = 64;
  auto opened = RecordLog::open(dir.path(), LogOptions{}, limits);
  ASSERT_TRUE(opened.is_ok());
  auto& log = opened.value();
  std::vector<std::uint8_t> big(65, 0xAB);
  EXPECT_EQ(log.append(1, 1, std::span<const std::uint8_t>(big.data(), 65))
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(log.poisoned());  // a refused append is not a failure
}

TEST(RecordLog, RotationSpansSegmentsAndSurvivesReopen) {
  TempDir dir;
  {
    auto log = must_open(dir.path(), small_segments());
    append_script(log, 1, 60);
    EXPECT_GT(log.segment_count(), 3u);
    expect_replay(log, 1, 60);
    expect_replay(log, 33, 60);
  }
  auto log = must_open(dir.path(), small_segments());
  EXPECT_EQ(log.last_seq(), 60u);
  expect_replay(log, 1, 60);
}

// A cursor says when a read stays inside the segment image it holds, and
// seeks back to a position it gave out without touching the disk; a
// position from another image reloads the segment that holds it.
TEST(RecordLog, CursorSeeksBackAndKnowsItsSegmentImage) {
  TempDir dir;
  auto log = must_open(dir.path(), small_segments());
  append_script(log, 1, 60);
  ASSERT_GT(log.segment_count(), 3u);
  auto cursor = log.read_from(1);
  RecordLog::Item item;
  ASSERT_TRUE(cursor.next(&item).value());
  const RecordLog::Cursor::Position after_first = cursor.position();
  // The first segment ends where reaching further would load the next.
  std::uint64_t last_in_place = 1;
  while (cursor.reaches_in_place(last_in_place + 1)) ++last_in_place;
  ASSERT_GT(last_in_place, 2u);
  ASSERT_LT(last_in_place, 60u);
  for (std::uint64_t seq = 2; seq <= last_in_place; ++seq)
    ASSERT_TRUE(cursor.next(&item).value());
  const std::uint8_t* image_byte = item.payload.data();
  EXPECT_FALSE(cursor.reaches_in_place(last_in_place + 1));

  cursor.seek(after_first);
  for (std::uint64_t seq = 2; seq <= last_in_place; ++seq) {
    ASSERT_TRUE(cursor.next(&item).value());
    ASSERT_EQ(item.seq, seq);
    ASSERT_EQ(item.payload.size(), payload_for(seq).size());
  }
  EXPECT_EQ(item.payload.data(), image_byte) << "seek reloaded the image";

  // On into the next segment, then back to a position from the first.
  ASSERT_TRUE(cursor.next(&item).value());
  EXPECT_EQ(item.seq, last_in_place + 1);
  cursor.seek(after_first);
  ASSERT_TRUE(cursor.next(&item).value());
  EXPECT_EQ(item.seq, 2u);
  const auto want = payload_for(2);
  ASSERT_EQ(item.payload.size(), want.size());
  EXPECT_EQ(std::memcmp(item.payload.data(), want.data(), want.size()), 0);
}

TEST(RecordLog, RetentionDropsOldestSegments) {
  TempDir dir;
  LogOptions options = small_segments();
  options.retention_segments = 2;
  auto log = must_open(dir.path(), options);
  append_script(log, 1, 60);
  EXPECT_LE(log.segment_count(), 2u);
  EXPECT_GT(log.first_seq(), 1u);
  EXPECT_EQ(log.last_seq(), 60u);
  // Reading from an evicted seq clamps to the retained range.
  expect_replay(log, log.first_seq(), 60);
  auto cursor = log.read_from(1);
  RecordLog::Item item;
  auto more = cursor.next(&item);
  ASSERT_TRUE(more.is_ok()) << more.status().to_string();
  ASSERT_TRUE(more.value());
  EXPECT_EQ(item.seq, log.first_seq());
}

TEST(RecordLog, IndexSeekMatchesLinearScan) {
  TempDir dir;
  LogOptions options;
  options.segment_bytes = 1u << 20;
  options.index_every_bytes = 256;  // dense index in one big segment
  auto log = must_open(dir.path(), options);
  append_script(log, 1, 200);
  expect_replay(log, 150, 200);
  // Deleting the sidecar only costs speed, never correctness.
  for (const char* suffix : {".idx"}) {
    std::string cmd = "rm -f '" + dir.path() + "'/*" + suffix;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  expect_replay(log, 150, 200);
}

TEST(RecordLog, TornTailIsTruncatedAndLogHeals) {
  TempDir dir;
  std::string tail_path;
  std::uint64_t full_size = 0;
  {
    auto log = must_open(dir.path());
    append_script(log, 1, 10);
  }
  {
    // Find the single segment file and cut it mid-frame.
    const std::string cmd =
        "ls '" + dir.path() + "' | grep '\\.log$' > '" + dir.path() + "/ls'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    auto listing = read_file_bytes(dir.path() + "/ls", 4096);
    ASSERT_TRUE(listing.is_ok());
    std::string name(listing.value().begin(), listing.value().end());
    name.erase(name.find_last_not_of('\n') + 1);
    tail_path = dir.path() + "/" + name;
    auto bytes = read_file_bytes(tail_path, 1u << 20);
    ASSERT_TRUE(bytes.is_ok());
    full_size = bytes.value().size();
    ASSERT_EQ(::truncate(tail_path.c_str(),
                         static_cast<off_t>(full_size - 5)),
              0);
  }
  auto log = must_open(dir.path());
  EXPECT_EQ(log.last_seq(), 9u);  // record 10 was torn away
  EXPECT_GT(log.recovered_bytes_dropped(), 0u);
  EXPECT_EQ(log.recovery_stop(), ScanStop::kTornTail);
  expect_replay(log, 1, 9);
  append_script(log, 10, 12);  // the hole is re-appendable
  expect_replay(log, 1, 12);
}

TEST(RecordLog, TrailingGarbageAfterValidFramesIsCut) {
  TempDir dir;
  {
    auto log = must_open(dir.path());
    append_script(log, 1, 5);
  }
  // Append rot to the tail: a "frame" that never was.
  {
    const std::string cmd = "ls '" + dir.path() +
                            "' | grep '\\.log$' | head -1";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char name[256] = {};
    ASSERT_NE(::fgets(name, sizeof(name), pipe), nullptr);
    ::pclose(pipe);
    std::string path = dir.path() + "/" + name;
    path.erase(path.find_last_not_of('\n') + 1);
    FILE* f = ::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t junk[13] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3,
                                   4,    5,    6,    7,    8, 9};
    ASSERT_EQ(::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
    ::fclose(f);
  }
  auto log = must_open(dir.path());
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.recovered_bytes_dropped(), 13u);
  expect_replay(log, 1, 5);
}

TEST(RecordLog, EmptyRotatedTailSegmentIsDeleted) {
  TempDir dir;
  {
    auto log = must_open(dir.path(), small_segments());
    append_script(log, 1, 30);
  }
  // Simulate a crash right after rotation wrote the new header: a
  // header-only segment past the real tail.
  {
    ByteBuffer header;
    append_file_header(header, kSegmentMagic, 1000);
    const std::string path =
        dir.path() + "/seg-00000000000003e8.log";
    ASSERT_TRUE(write_file_atomic(path, header.span()).is_ok());
  }
  auto log = must_open(dir.path(), small_segments());
  EXPECT_EQ(log.last_seq(), 30u);
  EXPECT_EQ(log.recovered_bytes_dropped(), kSegmentHeaderBytes);
  expect_replay(log, 1, 30);
  append_script(log, 31, 35);
  expect_replay(log, 1, 35);
}

TEST(RecordLog, InjectedWriteFaultsPoisonUntilReopen) {
  struct Case {
    StorageFault fault;
    ErrorCode code;
  };
  const Case cases[] = {
      {StorageFault::enospc(200), ErrorCode::kResourceExhausted},
      {StorageFault::eio(200), ErrorCode::kIoError},
      {StorageFault::short_write(200), ErrorCode::kIoError},
      {StorageFault::fsync_fail(3), ErrorCode::kIoError},
  };
  for (const Case& c : cases) {
    TempDir dir;
    std::uint64_t last_ok = 0;
    {
      auto log = must_open(dir.path());
      log.arm_fault(c.fault);
      Status status = Status::ok();
      std::uint64_t seq = 1;
      for (; seq <= 64; ++seq) {
        const auto bytes = payload_for(seq);
        status = log.append(
            seq, seq % 3 + 1,
            std::span<const std::uint8_t>(bytes.data(), bytes.size()));
        if (!status.is_ok()) break;
        last_ok = seq;
      }
      ASSERT_FALSE(status.is_ok()) << "fault never fired";
      EXPECT_EQ(status.code(), c.code);
      EXPECT_TRUE(log.poisoned());
      // Poisoned log refuses everything until reopened.
      const auto bytes = payload_for(seq + 1);
      EXPECT_FALSE(
          log.append(seq + 1, 1,
                     std::span<const std::uint8_t>(bytes.data(), bytes.size()))
              .is_ok());
      EXPECT_FALSE(log.sync().is_ok());
    }
    // Reopen: every append acked before the fault must be present, and
    // nothing torn may surface. An *unacked* record whose bytes landed
    // before the fault (the fsync-fail case) may legitimately survive.
    auto log = must_open(dir.path());
    EXPECT_GE(log.last_seq(), last_ok)
        << "acked record lost under " << static_cast<int>(c.fault.kind);
    EXPECT_LE(log.last_seq(), last_ok + 1);
    if (log.last_seq() > 0) expect_replay(log, 1, log.last_seq());
  }
}

TEST(RecordLog, FsyncPolicies) {
  TempDir dir1;
  LogOptions interval;
  interval.fsync = FsyncPolicy::kInterval;
  interval.fsync_interval_records = 4;
  auto log = must_open(dir1.path(), interval);
  append_script(log, 1, 3);
  EXPECT_EQ(log.synced_seq(), 0u);  // below the interval
  append_script(log, 4, 4);
  EXPECT_EQ(log.synced_seq(), 4u);  // interval hit
  append_script(log, 5, 6);
  ASSERT_TRUE(log.sync().is_ok());  // explicit sync catches up
  EXPECT_EQ(log.synced_seq(), 6u);

  TempDir dir2;
  LogOptions none;
  none.fsync = FsyncPolicy::kNone;
  auto lazy = must_open(dir2.path(), none);
  append_script(lazy, 1, 10);
  EXPECT_EQ(lazy.synced_seq(), 0u);
  ASSERT_TRUE(lazy.sync().is_ok());
  EXPECT_EQ(lazy.synced_seq(), 10u);

  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kInterval), "interval");
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::kNone), "none");
}

TEST(FormatCatalog, PersistsFormatsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.path() + "/catalog.cat";
  pbio::FormatRegistry registry;
  auto point = registry
                   .register_format("Point",
                                    {{"x", "float", 4, 0}, {"y", "float", 4, 4}},
                                    8)
                   .value();
  auto tag =
      registry.register_format("Tag", {{"id", "integer", 4, 0}}, 4).value();
  {
    auto catalog = FormatCatalog::open(path, DecodeLimits::defaults());
    ASSERT_TRUE(catalog.is_ok()) << catalog.status().to_string();
    ASSERT_TRUE(catalog.value().put(point).is_ok());
    ASSERT_TRUE(catalog.value().put(tag).is_ok());
    ASSERT_TRUE(catalog.value().put(point).is_ok());  // idempotent
    EXPECT_EQ(catalog.value().size(), 2u);
  }
  auto catalog = FormatCatalog::open(path, DecodeLimits::defaults());
  ASSERT_TRUE(catalog.is_ok()) << catalog.status().to_string();
  EXPECT_EQ(catalog.value().size(), 2u);
  EXPECT_TRUE(catalog.value().contains(point->id()));
  ASSERT_NE(catalog.value().get(tag->id()), nullptr);
  EXPECT_EQ(catalog.value().get(tag->id())->id(), tag->id());

  pbio::FormatRegistry fresh;
  ASSERT_TRUE(catalog.value().load_into(fresh).is_ok());
  EXPECT_EQ(fresh.size(), 2u);
  ASSERT_TRUE(fresh.by_id(point->id()).is_ok());
  EXPECT_TRUE(fresh.by_name("Tag").is_ok());
}

TEST(FormatCatalog, TornTailIsTruncated) {
  TempDir dir;
  const std::string path = dir.path() + "/catalog.cat";
  pbio::FormatRegistry registry;
  auto point = registry
                   .register_format("Point",
                                    {{"x", "float", 4, 0}, {"y", "float", 4, 4}},
                                    8)
                   .value();
  auto tag =
      registry.register_format("Tag", {{"id", "integer", 4, 0}}, 4).value();
  {
    auto catalog = FormatCatalog::open(path, DecodeLimits::defaults());
    ASSERT_TRUE(catalog.is_ok());
    ASSERT_TRUE(catalog.value().put(point).is_ok());
    ASSERT_TRUE(catalog.value().put(tag).is_ok());
  }
  auto bytes = read_file_bytes(path, 1u << 20);
  ASSERT_TRUE(bytes.is_ok());
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(bytes.value().size() - 3)),
            0);
  auto catalog = FormatCatalog::open(path, DecodeLimits::defaults());
  ASSERT_TRUE(catalog.is_ok()) << catalog.status().to_string();
  EXPECT_EQ(catalog.value().size(), 1u);  // Tag's entry was torn away
  EXPECT_GT(catalog.value().torn_bytes_recovered(), 0u);
  EXPECT_TRUE(catalog.value().contains(point->id()));
  // And the healed catalog accepts the format again.
  ASSERT_TRUE(catalog.value().put(tag).is_ok());
}

TEST(SessionMeta, RoundTripAndCorruptionSafety) {
  TempDir dir;
  const std::string path = dir.path() + "/session.meta";
  EXPECT_FALSE(load_session_meta(path, DecodeLimits::defaults()).has_value());
  ASSERT_TRUE(store_session_meta(path, SessionMeta{0xABCDEF12345678ull, 7})
                  .is_ok());
  auto meta = load_session_meta(path, DecodeLimits::defaults());
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->session_id, 0xABCDEF12345678ull);
  EXPECT_EQ(meta->epoch, 7u);
  EXPECT_EQ(store_session_meta(path, SessionMeta{0, 1}).code(),
            ErrorCode::kInvalidArgument);
  // Flip a byte: the CRC must catch it and the loader must shrug.
  auto bytes = read_file_bytes(path, 4096);
  ASSERT_TRUE(bytes.is_ok());
  auto mutated = bytes.value();
  mutated[mutated.size() - 1] ^= 0x40;
  ASSERT_TRUE(write_file_atomic(
                  path, std::span<const std::uint8_t>(mutated.data(),
                                                      mutated.size()))
                  .is_ok());
  EXPECT_FALSE(load_session_meta(path, DecodeLimits::defaults()).has_value());
}

// Historical replay through the parallel decoder (DESIGN.md §5i): PBIO
// wire records appended to a RecordLog stream back through a cursor into
// BatchDecoder::decode_stream, which must deliver every decoded struct in
// sequence order and byte-identical to a one-at-a-time decode.
TEST(RecordLog, ReplayDecodesThroughBatchDecoder) {
  struct Sample {
    std::int32_t id;
    std::int32_t n;
    double* values;
  };
  pbio::FormatRegistry registry;
  auto format =
      registry
          .register_format("Sample",
                           {
                               {"id", "integer", 4, offsetof(Sample, id)},
                               {"n", "integer", 4, offsetof(Sample, n)},
                               {"values", "float[n]", 8,
                                offsetof(Sample, values)},
                           },
                           sizeof(Sample))
          .value();
  pbio::Decoder decoder(registry);

  TempDir dir;
  auto log = must_open(dir.path());
  const std::uint64_t kRecords = 23;
  for (std::uint64_t seq = 1; seq <= kRecords; ++seq) {
    pbio::RecordBuilder builder(format);
    ASSERT_TRUE(
        builder.set_int("id", static_cast<std::int64_t>(seq)).is_ok());
    std::vector<double> values(1 + seq % 5);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = 0.5 * static_cast<double>(seq) + i;
    ASSERT_TRUE(builder.set_float_array("values", values).is_ok());
    auto bytes = builder.build().value();
    ASSERT_TRUE(log.append(seq, format->id(),
                           std::span<const std::uint8_t>(bytes.data(),
                                                         bytes.size()))
                    .is_ok());
  }

  pbio::BatchDecoder pool(decoder, /*workers=*/4);
  auto cursor = log.read_from(1);
  RecordLog::Item item;
  std::uint64_t expected_id = 1;
  auto delivered = pool.decode_stream(
      [&](std::vector<std::uint8_t>* out) -> Result<bool> {
        // Item payloads live in the cursor's segment buffer only until
        // the following next(): copy into the stream's reusable buffer.
        XMIT_ASSIGN_OR_RETURN(bool more, cursor.next(&item));
        if (!more) return false;
        out->assign(item.payload.begin(), item.payload.end());
        return true;
      },
      *format,
      [&](std::uint64_t index, const void* decoded) -> Status {
        const auto* sample = static_cast<const Sample*>(decoded);
        EXPECT_EQ(sample->id, static_cast<std::int32_t>(index + 1));
        EXPECT_EQ(static_cast<std::uint64_t>(sample->id), expected_id);
        EXPECT_EQ(sample->n, static_cast<std::int32_t>(1 + (index + 1) % 5));
        EXPECT_EQ(sample->values[0], 0.5 * static_cast<double>(index + 1));
        ++expected_id;
        return Status::ok();
      },
      /*window=*/6);
  ASSERT_TRUE(delivered.is_ok()) << delivered.status().to_string();
  EXPECT_EQ(delivered.value(), kRecords);
  EXPECT_EQ(expected_id, kRecords + 1);
  EXPECT_EQ(pool.records_decoded(), kRecords);
}

}  // namespace
}  // namespace xmit::storage

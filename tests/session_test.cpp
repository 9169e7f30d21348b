// MessageSession tests: self-describing connections — formats travel
// in-band exactly once, receivers need no schema, evolution re-announces.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <span>
#include <thread>

#include "common/arena.hpp"
#include "common/endian.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/format_wire.hpp"
#include "pbio/wire.hpp"
#include "session/session.hpp"

namespace xmit::session {
namespace {

struct Reading {
  std::int32_t id;
  std::int32_t n;
  float* series;
  char* site;
};

pbio::FormatPtr reading_format(pbio::FormatRegistry& registry) {
  return registry
      .register_format(
          "Reading",
          {{"id", "integer", 4, offsetof(Reading, id)},
           {"n", "integer", 4, offsetof(Reading, n)},
           {"series", "float[n]", 4, offsetof(Reading, series)},
           {"site", "string", sizeof(char*), offsetof(Reading, site)}},
          sizeof(Reading))
      .value();
}

TEST(Session, ReceiverNeedsNoPriorMetadata) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.5f, 2.5f};
  char site[] = "upstream";
  Reading in{4, 2, series.data(), site};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());

  EXPECT_EQ(receiver_registry.size(), 0u);  // nothing until receive()
  auto incoming = pair.b.receive().value();
  EXPECT_EQ(incoming.sender_format->name(), "Reading");
  EXPECT_EQ(receiver_registry.size(), 1u);  // adopted in-band

  // Decode with the announced metadata (identity layout).
  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  Reading out{};
  ASSERT_TRUE(
      decoder.decode(incoming.bytes, *incoming.sender_format, &out, arena)
          .is_ok());
  EXPECT_EQ(out.id, 4);
  EXPECT_STREQ(out.site, "upstream");
  EXPECT_EQ(out.series[1], 2.5f);
}

TEST(Session, FormatAnnouncedExactlyOnce) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();
  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  for (int i = 0; i < 20; ++i) {
    in.id = i;
    ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  }
  EXPECT_EQ(pair.a.announcements_sent(), 1u);
  EXPECT_EQ(pair.a.records_sent(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto incoming = pair.b.receive().value();
    EXPECT_EQ(incoming.sender_format->id(), format->id());
  }
  EXPECT_EQ(pair.b.announcements_received(), 1u);
}

TEST(Session, EvolvedFormatTriggersReannouncement) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  struct V1 {
    std::int32_t a;
  };
  struct V2 {
    std::int32_t a;
    double b;
  };
  auto v1 = sender_registry
                .register_format("Msg", {{"a", "integer", 4, 0}}, sizeof(V1))
                .value();
  auto v1_encoder = pbio::Encoder::make(v1).value();
  V1 first{1};
  ASSERT_TRUE(pair.a.send(v1_encoder, &first).is_ok());

  auto v2 = sender_registry
                .register_format(
                    "Msg",
                    {{"a", "integer", 4, offsetof(V2, a)},
                     {"b", "float", 8, offsetof(V2, b)}},
                    sizeof(V2))
                .value();
  auto v2_encoder = pbio::Encoder::make(v2).value();
  V2 second{2, 0.5};
  ASSERT_TRUE(pair.a.send(v2_encoder, &second).is_ok());
  EXPECT_EQ(pair.a.announcements_sent(), 2u);  // structure modified

  auto one = pair.b.receive().value();
  auto two = pair.b.receive().value();
  EXPECT_EQ(one.sender_format->id(), v1->id());
  EXPECT_EQ(two.sender_format->id(), v2->id());
  EXPECT_EQ(receiver_registry.size(), 2u);  // both versions known
}

TEST(Session, NestedFormatsTravelWithTheOuter) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();

  struct Point {
    float x, y;
  };
  struct Line {
    Point a, b;
  };
  ASSERT_TRUE(sender_registry
                  .register_format("Point",
                                   {{"x", "float", 4, offsetof(Point, x)},
                                    {"y", "float", 4, offsetof(Point, y)}},
                                   sizeof(Point))
                  .is_ok());
  auto line = sender_registry
                  .register_format("Line",
                                   {{"a", "Point", sizeof(Point), offsetof(Line, a)},
                                    {"b", "Point", sizeof(Point), offsetof(Line, b)}},
                                   sizeof(Line))
                  .value();
  auto encoder = pbio::Encoder::make(line).value();
  Line in{{1, 2}, {3, 4}};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());

  auto incoming = pair.b.receive().value();
  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  Line out{};
  ASSERT_TRUE(
      decoder.decode(incoming.bytes, *incoming.sender_format, &out, arena)
          .is_ok());
  EXPECT_EQ(out.b.y, 4.0f);
}

TEST(Session, PreAnnounceLetsReceiverBindEarly) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();
  auto format = reading_format(sender_registry);
  ASSERT_TRUE(pair.a.announce(*format).is_ok());
  // Push one record so receive() has a data frame to stop at.
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  EXPECT_EQ(pair.a.announcements_sent(), 1u);  // announce() + send() = once

  auto incoming = pair.b.receive().value();
  EXPECT_TRUE(receiver_registry.by_name("Reading").is_ok());
  EXPECT_EQ(incoming.sender_format->name(), "Reading");
}

TEST(Session, CleanCloseSurfacesAsNotFound) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();
  pair.a.close();
  auto incoming = pair.b.receive(200);
  EXPECT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kNotFound);
}

TEST(Session, GarbageFrameIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  std::vector<std::uint8_t> junk = {0x77, 1, 2, 3};
  ASSERT_TRUE(raw_a.send(junk).is_ok());
  auto incoming = receiver.receive(200);
  EXPECT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kParseError);
}

TEST(Session, HostileRecordQuarantinesFormatUntilReannounce) {
  // Drive the receiver over a raw channel so the test controls every
  // frame, including the re-announcement a real sender would skip.
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  char site[] = "x";
  Reading in{1, 1, series.data(), site};
  std::vector<std::uint8_t> record = encoder.encode_to_vector(&in).value();

  auto send_frame = [&raw_a](std::uint8_t tag,
                             std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> frame;
    frame.push_back(tag);
    frame.insert(frame.end(), body.begin(), body.end());
    return raw_a.send(frame);
  };
  // Data frames carry a u64 LE sequence number between tag and record.
  auto send_record = [&raw_a](std::uint64_t seq,
                              std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> frame;
    frame.push_back(0x02);
    for (int shift = 0; shift < 64; shift += 8)
      frame.push_back(static_cast<std::uint8_t>(seq >> shift));
    frame.insert(frame.end(), body.begin(), body.end());
    return raw_a.send(frame);
  };
  auto announce = pbio::serialize_format(*format);

  ASSERT_TRUE(send_frame(0x01, announce).is_ok());
  ASSERT_TRUE(send_record(1, record).is_ok());
  ASSERT_TRUE(receiver.receive(200).is_ok());

  // A record whose header contradicts the announced architecture
  // (4-byte-pointer flag cleared) — affirmatively hostile, not truncated.
  auto hostile = record;
  hostile[5] &= ~std::uint8_t(0x02);
  ASSERT_TRUE(send_record(2, hostile).is_ok());
  auto hostile_read = receiver.receive(200);
  ASSERT_FALSE(hostile_read.is_ok());
  EXPECT_EQ(hostile_read.code(), ErrorCode::kMalformedInput);
  EXPECT_TRUE(receiver.is_quarantined(format->id()));

  // An intact record under the quarantined id is refused fail-fast.
  ASSERT_TRUE(send_record(3, record).is_ok());
  auto refused = receiver.receive(200);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.status().message().find("quarantined"), std::string::npos)
      << refused.status().message();

  // A fresh, well-formed announcement vouches for the format again.
  ASSERT_TRUE(send_frame(0x01, announce).is_ok());
  ASSERT_TRUE(send_record(4, record).is_ok());
  auto healed = receiver.receive(200);
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_FALSE(receiver.is_quarantined(format->id()));
}

TEST(Session, TruncatedRecordDoesNotQuarantine) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  char site[] = "x";
  Reading in{1, 1, series.data(), site};
  std::vector<std::uint8_t> record = encoder.encode_to_vector(&in).value();

  ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  ASSERT_TRUE(pair.b.receive().is_ok());

  // A peer dying mid-write is not an attack: the short record errors but
  // the format stays trusted and the next intact record decodes.
  std::vector<std::uint8_t> truncated(record.begin(),
                                      record.begin() + record.size() / 2);
  ASSERT_TRUE(pair.a.send_encoded(*format, truncated).is_ok());
  auto failed = pair.b.receive(200);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_FALSE(pair.b.is_quarantined(format->id()));

  ASSERT_TRUE(pair.a.send_encoded(*format, record).is_ok());
  EXPECT_TRUE(pair.b.receive(200).is_ok());
}

TEST(Session, MalformedFrameFloodPoisonsSession) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  DecodeLimits limits;
  limits.max_malformed_frames = 3;
  receiver.set_limits(limits);

  std::vector<std::uint8_t> junk = {0x02, 0xFF};  // record tag, garbage body
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(raw_a.send(junk).is_ok());

  for (int i = 0; i < 3; ++i) {
    auto failed = receiver.receive(200);
    ASSERT_FALSE(failed.is_ok());
    EXPECT_FALSE(receiver.poisoned());
  }
  auto over_budget = receiver.receive(200);
  ASSERT_FALSE(over_budget.is_ok());
  EXPECT_EQ(over_budget.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(receiver.poisoned());

  // Once poisoned, even a well-formed frame is refused fail-fast.
  auto format = reading_format(a_registry);
  ByteBuffer frame;
  frame.append_byte(0x01);
  pbio::serialize_format(*format, frame);
  ASSERT_TRUE(raw_a.send(frame.span()).is_ok());
  auto refused = receiver.receive(200);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
}

TEST(Session, OversizedFrameIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);
  DecodeLimits limits;
  limits.max_message_bytes = 64;
  receiver.set_limits(limits);

  std::vector<std::uint8_t> big(65, 0x02);
  ASSERT_TRUE(raw_a.send(big).is_ok());
  auto failed = receiver.receive(200);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), ErrorCode::kResourceExhausted);
}

TEST(Session, BidirectionalTraffic) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();

  auto a_format = reading_format(a_registry);
  auto a_encoder = pbio::Encoder::make(a_format).value();
  struct Ack {
    std::int32_t id;
  };
  auto b_format =
      b_registry.register_format("Ack", {{"id", "integer", 4, 0}}, sizeof(Ack))
          .value();
  auto b_encoder = pbio::Encoder::make(b_format).value();

  std::thread responder([&] {
    pbio::Decoder decoder(b_registry);
    Arena arena;
    for (int i = 0; i < 5; ++i) {
      auto incoming = pair.b.receive();
      if (!incoming.is_ok()) return;
      Reading reading{};
      arena.reset();
      if (!decoder
               .decode(incoming.value().bytes, *incoming.value().sender_format,
                       &reading, arena)
               .is_ok())
        return;
      Ack ack{reading.id};
      if (!pair.b.send(b_encoder, &ack).is_ok()) return;
    }
  });

  pbio::Decoder decoder(a_registry);
  Arena arena;
  std::vector<float> series = {0.5f};
  for (int i = 0; i < 5; ++i) {
    Reading reading{i, 1, series.data(), nullptr};
    ASSERT_TRUE(pair.a.send(a_encoder, &reading).is_ok());
    auto ack_frame = pair.a.receive().value();
    EXPECT_EQ(ack_frame.sender_format->name(), "Ack");
    Ack ack{};
    arena.reset();
    ASSERT_TRUE(decoder
                    .decode(ack_frame.bytes, *ack_frame.sender_format, &ack,
                            arena)
                    .is_ok());
    EXPECT_EQ(ack.id, i);
  }
  responder.join();
}

// ---- resumption-layer semantics over hand-built frames -----------------

namespace {

// Raw-frame helpers mirroring the session wire protocol v2.
Status send_raw_record(net::Channel& channel, std::uint64_t seq,
                       std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x02);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(seq >> shift));
  frame.insert(frame.end(), body.begin(), body.end());
  return channel.send(frame);
}

Status send_raw_handshake(net::Channel& channel, std::uint8_t flags,
                          std::uint64_t sid, std::uint32_t epoch,
                          std::uint64_t last_seq) {
  std::vector<std::uint8_t> frame;
  frame.push_back(0x03);
  frame.push_back(flags);
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(sid >> shift));
  for (int shift = 0; shift < 32; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(epoch >> shift));
  for (int shift = 0; shift < 64; shift += 8)
    frame.push_back(static_cast<std::uint8_t>(last_seq >> shift));
  return channel.send(frame);
}

}  // namespace

TEST(Session, RecordsReceivedCounterTracksDeliveries) {
  pbio::FormatRegistry a_registry, b_registry;
  auto pair = make_session_pipe(a_registry, b_registry).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1};
  Reading in{1, 1, series.data(), nullptr};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pair.b.receive().is_ok());
  EXPECT_EQ(pair.b.records_received(), 3u);
  EXPECT_EQ(pair.b.duplicates_discarded(), 0u);
  EXPECT_EQ(pair.b.reconnects(), 0u);
  EXPECT_EQ(pair.a.replayed_records(), 0u);
}

TEST(Session, DuplicateRecordsAreDiscarded) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  Reading in{1, 1, series.data(), nullptr};
  auto record = encoder.encode_to_vector(&in).value();
  ByteBuffer announce;
  announce.append_byte(0x01);
  pbio::serialize_format(*format, announce);
  ASSERT_TRUE(raw_a.send(announce.span()).is_ok());

  // An at-least-once sender replays: seq 1 twice, then seq 2.
  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 2, record).is_ok());

  ASSERT_TRUE(receiver.receive(500).is_ok());
  auto second = receiver.receive(500);  // skips the duplicate silently
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(receiver.records_received(), 2u);
  EXPECT_EQ(receiver.duplicates_discarded(), 1u);
}

TEST(Session, SequenceGapSurfacesDataLossOnce) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.0f};
  Reading in{1, 1, series.data(), nullptr};
  auto record = encoder.encode_to_vector(&in).value();
  ByteBuffer announce;
  announce.append_byte(0x01);
  pbio::serialize_format(*format, announce);
  ASSERT_TRUE(raw_a.send(announce.span()).is_ok());

  ASSERT_TRUE(send_raw_record(raw_a, 1, record).is_ok());
  ASSERT_TRUE(send_raw_record(raw_a, 4, record).is_ok());  // 2 and 3 gone
  ASSERT_TRUE(send_raw_record(raw_a, 5, record).is_ok());

  ASSERT_TRUE(receiver.receive(500).is_ok());
  auto gap = receiver.receive(500);
  ASSERT_FALSE(gap.is_ok());
  EXPECT_EQ(gap.code(), ErrorCode::kDataLoss);
  // Reported once; the stream then continues in order.
  auto after = receiver.receive(500);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(receiver.records_received(), 2u);
}

TEST(Session, HandshakeEpochRollbackIsRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  const std::uint64_t sid = 0xABCDEF01;
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, sid, 2, 0).is_ok());
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, sid, 1, 0).is_ok());
  auto rollback = receiver.receive(500);  // first handshake consumed quietly
  ASSERT_FALSE(rollback.is_ok());
  EXPECT_EQ(rollback.code(), ErrorCode::kMalformedInput);
  EXPECT_NE(rollback.status().message().find("rollback"), std::string::npos)
      << rollback.status().message();
  // The rollback must not have disturbed adopted identity.
  EXPECT_EQ(receiver.session_id(), sid);
  EXPECT_EQ(receiver.epoch(), 2u);
}

TEST(Session, HandshakeForeignSessionAndAbsurdAckRejected) {
  pbio::FormatRegistry a_registry, b_registry;
  auto [raw_a, raw_b] = net::Channel::pipe().value();
  MessageSession receiver(std::move(raw_b), b_registry);

  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 7, 1, 0).is_ok());
  // Acks a record the receiver never sent.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 7, 2, 50).is_ok());
  auto absurd = receiver.receive(500);
  ASSERT_FALSE(absurd.is_ok());
  EXPECT_EQ(absurd.code(), ErrorCode::kMalformedInput);

  // A different session id on the same transport is refused.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 8, 3, 0).is_ok());
  auto foreign = receiver.receive(500);
  ASSERT_FALSE(foreign.is_ok());
  EXPECT_EQ(foreign.code(), ErrorCode::kMalformedInput);
  EXPECT_NE(foreign.status().message().find("foreign"), std::string::npos)
      << foreign.status().message();

  // Zero session ids never identify a session.
  ASSERT_TRUE(send_raw_handshake(raw_a, 0x01, 0, 4, 0).is_ok());
  auto zero = receiver.receive(500);
  ASSERT_FALSE(zero.is_ok());
  EXPECT_EQ(zero.code(), ErrorCode::kMalformedInput);
}

TEST(Session, TcpPairRoundTripsRecords) {
  pbio::FormatRegistry a_registry, b_registry;
  auto tcp = make_session_tcp(a_registry, b_registry).value();
  auto format = reading_format(a_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {2.5f};
  char site[] = "tcp";
  Reading in{9, 1, series.data(), site};
  ASSERT_TRUE(tcp.a.send(encoder, &in).is_ok());
  auto incoming = tcp.b.receive(2000);
  ASSERT_TRUE(incoming.is_ok()) << incoming.status().to_string();
  EXPECT_EQ(incoming.value().sender_format->name(), "Reading");
  EXPECT_EQ(tcp.b.session_id(), tcp.a.session_id());
  EXPECT_EQ(tcp.b.epoch(), 1u);
  tcp.a.close();
  tcp.b.close();
}

// receive_batch: one call drains everything the transport already holds
// and decodes it across the worker pool; what it does not take stays
// queued for the next receive.
TEST(Session, ReceiveBatchDrainsAndDecodesInOrder) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  SessionOptions options;
  options.batch_decode_workers = 4;
  auto pair =
      make_session_pipe(sender_registry, receiver_registry, options).value();

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  const int kRecords = 7;
  for (int i = 0; i < kRecords; ++i) {
    std::vector<float> series = {0.5f * i, 0.5f * i + 0.25f};
    char site[] = "batch";
    Reading in{i, 2, series.data(), site};
    ASSERT_TRUE(pair.a.send(encoder, &in).is_ok());
  }

  // The receiver decodes against its own registration of the layout.
  auto receiver = reading_format(receiver_registry);
  const std::size_t stride = sizeof(Reading);
  alignas(std::max_align_t) Reading out[kRecords] = {};

  // First call takes fewer than available: the rest must stay queued.
  auto took =
      pair.b.receive_batch(*receiver, out, stride, /*max_records=*/4, 2000);
  ASSERT_TRUE(took.is_ok()) << took.status().to_string();
  EXPECT_EQ(took.value(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].id, i);
    ASSERT_EQ(out[i].n, 2);
    EXPECT_EQ(out[i].series[1], 0.5f * i + 0.25f);
    EXPECT_STREQ(out[i].site, "batch");
  }

  // Second call drains the remaining three (max_records larger than what
  // is left) without waiting for more.
  auto rest =
      pair.b.receive_batch(*receiver, out, stride, /*max_records=*/16, 2000);
  ASSERT_TRUE(rest.is_ok()) << rest.status().to_string();
  EXPECT_EQ(rest.value(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].id, i + 4);

  // Nothing queued and nothing arriving: the first-record wait times out.
  auto empty = pair.b.receive_batch(*receiver, out, stride, 4, 50);
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), ErrorCode::kTimeout);
}

// A TCP peer that writes raw bytes, so a test can stop a frame anywhere.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawPeer() { ::close(fd_); }
  bool connected() const { return connected_; }
  bool write(std::span<const std::uint8_t> bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
  bool connected_ = false;
};

// [u32 LE length | payload]: one frame as it travels on the wire.
std::vector<std::uint8_t> wire_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(4 + payload.size());
  store_with_order<std::uint32_t>(frame.data(),
                                  static_cast<std::uint32_t>(payload.size()),
                                  ByteOrder::kLittle);
  std::copy(payload.begin(), payload.end(), frame.begin() + 4);
  return frame;
}

// A receive that times out halfway through a frame keeps the bytes it
// already read: the rest of the frame completes the record, and the
// stream stays framed.
TEST(Session, TimeoutMidFrameKeepsTheStreamFramed) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto listener = net::ChannelListener::listen(0).value();
  RawPeer peer(listener.port());
  ASSERT_TRUE(peer.connected());
  MessageSession receiver(listener.accept(2000).value(), receiver_registry);

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.5f, 2.5f, 3.5f, 4.5f};
  char site[] = "midstream";
  Reading in{9, 4, series.data(), site};
  ByteBuffer announcement;
  announcement.append_byte(0x01);
  pbio::serialize_format(*format, announcement);
  std::vector<std::uint8_t> record = {0x02, 1, 0, 0, 0, 0, 0, 0, 0};
  const auto encoded = encoder.encode_to_vector(&in).value();
  record.insert(record.end(), encoded.begin(), encoded.end());

  std::vector<std::uint8_t> stream = wire_frame(announcement.span());
  const std::vector<std::uint8_t> record_frame = wire_frame(record);
  const std::size_t cut = 4 + record.size() / 2;
  stream.insert(stream.end(), record_frame.begin(),
                record_frame.begin() + static_cast<std::ptrdiff_t>(cut));
  ASSERT_TRUE(peer.write(stream));

  auto early = receiver.receive_view(0);
  ASSERT_FALSE(early.is_ok());
  EXPECT_EQ(early.code(), ErrorCode::kTimeout);

  ASSERT_TRUE(peer.write(std::span<const std::uint8_t>(record_frame).subspan(cut)));
  auto incoming = receiver.receive_view(1000);
  ASSERT_TRUE(incoming.is_ok()) << incoming.status().to_string();
  EXPECT_TRUE(std::equal(incoming.value().bytes.begin(),
                         incoming.value().bytes.end(), encoded.begin(),
                         encoded.end()));
  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  Reading out{};
  ASSERT_TRUE(decoder
                  .decode(incoming.value().bytes,
                          *incoming.value().sender_format, &out, arena)
                  .is_ok());
  EXPECT_EQ(out.id, 9);
  ASSERT_EQ(out.n, 4);
  EXPECT_EQ(out.series[3], 4.5f);
  EXPECT_STREQ(out.site, "midstream");
  EXPECT_EQ(receiver.malformed_frames(), 0u);
}

// Frames that arrived together are read ahead into the channel: the
// records behind the first come out of receive_view(0) without a wait on
// the socket, which read-ahead already drained.
TEST(Session, CoalescedFramesAreNotHiddenBehindThePoll) {
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto listener = net::ChannelListener::listen(0).value();
  RawPeer peer(listener.port());
  ASSERT_TRUE(peer.connected());
  MessageSession receiver(listener.accept(2000).value(), receiver_registry);

  auto format = reading_format(sender_registry);
  auto encoder = pbio::Encoder::make(format).value();
  std::vector<float> series = {1.5f, 2.5f};
  char site[] = "coalesced";
  ByteBuffer announcement;
  announcement.append_byte(0x01);
  pbio::serialize_format(*format, announcement);
  std::vector<std::uint8_t> stream = wire_frame(announcement.span());
  for (std::uint8_t seq = 1; seq <= 3; ++seq) {
    Reading in{seq, 2, series.data(), site};
    std::vector<std::uint8_t> record = {0x02, seq, 0, 0, 0, 0, 0, 0, 0};
    const auto encoded = encoder.encode_to_vector(&in).value();
    record.insert(record.end(), encoded.begin(), encoded.end());
    const std::vector<std::uint8_t> frame = wire_frame(record);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(peer.write(stream));

  pbio::Decoder decoder(receiver_registry);
  Arena arena;
  for (int seq = 1; seq <= 3; ++seq) {
    auto incoming = receiver.receive_view(seq == 1 ? 1000 : 0);
    ASSERT_TRUE(incoming.is_ok())
        << "record " << seq << ": " << incoming.status().to_string();
    Reading out{};
    ASSERT_TRUE(decoder
                    .decode(incoming.value().bytes,
                            *incoming.value().sender_format, &out, arena)
                    .is_ok());
    EXPECT_EQ(out.id, seq);
  }
  EXPECT_EQ(receiver.receive_view(0).code(), ErrorCode::kTimeout);
}

// Records larger than the socket buffers arrive in pieces, so the
// receive_batch drain (receive_view(0)) regularly stops mid-frame. A
// plain pair must still deliver every record, in order and intact.
TEST(Session, BatchDrainOfLargeRecordsStaysFramed) {
  struct Bulk {
    std::int32_t id;
    std::int32_t n;
    float* values;
  };
  const std::vector<pbio::IOField> fields = {
      {"id", "integer", 4, offsetof(Bulk, id)},
      {"n", "integer", 4, offsetof(Bulk, n)},
      {"values", "float[n]", 4, offsetof(Bulk, values)}};
  pbio::FormatRegistry sender_registry, receiver_registry;
  auto pair = make_session_pipe(sender_registry, receiver_registry).value();
  auto format =
      sender_registry.register_format("Bulk", fields, sizeof(Bulk)).value();
  auto receiver_format =
      receiver_registry.register_format("Bulk", fields, sizeof(Bulk)).value();
  auto encoder = pbio::Encoder::make(format).value();

  constexpr int kRecords = 300;
  constexpr std::int32_t kValues = 20000;  // 80 KB of payload per record
  const auto value_at = [](int id, int i) {
    return static_cast<float>(id) * 0.5f + static_cast<float>(i);
  };
  std::thread sender([&] {
    std::vector<float> values(kValues);
    for (int id = 0; id < kRecords; ++id) {
      for (int i = 0; i < kValues; ++i) values[i] = value_at(id, i);
      Bulk record{id, kValues, values.data()};
      if (!pair.a.send(encoder, &record).is_ok()) return;
    }
  });

  Bulk out[8] = {};
  int next_id = 0;
  bool intact = true;
  while (next_id < kRecords && intact) {
    auto took =
        pair.b.receive_batch(*receiver_format, out, sizeof(Bulk), 8, 10000);
    if (!took.is_ok()) {
      ADD_FAILURE() << "after " << next_id << " records: "
                    << took.status().to_string();
      break;
    }
    for (std::size_t k = 0; k < took.value() && intact; ++k) {
      intact = out[k].id == next_id && out[k].n == kValues;
      for (int i = 0; intact && i < kValues; ++i)
        intact = out[k].values[i] == value_at(next_id, i);
      if (intact) ++next_id;
    }
  }
  pair.b.close();  // unblocks a sender still writing after a failure
  sender.join();
  EXPECT_TRUE(intact) << "record " << next_id << " arrived out of order or damaged";
  EXPECT_EQ(next_id, kRecords);
  EXPECT_EQ(pair.b.malformed_frames(), 0u);
}

// The send deadline bounds a stall, not a whole flush: a durable sender
// streams a history that takes several deadlines to drain to a cold
// subscriber that reads slowly but never stops, and every record arrives.
TEST(Session, SlowReaderGetsAHistoryLongerThanTheSendDeadline) {
  char tmpl[] = "/tmp/xmit_session_XXXXXX";
  const std::filesystem::path dir = ::mkdtemp(tmpl);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};

  pbio::FormatRegistry sender_registry, sink_registry, cold_registry;
  auto live = net::Channel::pipe().value();
  SessionOptions durable;
  durable.resumable = true;
  durable.heartbeat_interval_ms = 60000;
  durable.liveness_deadline_ms = 250;  // also the channel's send deadline
  durable.durable_dir = dir.string();
  durable.durable_fsync = storage::FsyncPolicy::kNone;
  MessageSession sender(std::move(live.first), sender_registry, durable);
  MessageSession sink(std::move(live.second), sink_registry);
  ASSERT_TRUE(sender.durable_status().is_ok())
      << sender.durable_status().to_string();

  // 200 records of 16 KB: far more than a socket buffer holds.
  constexpr int kRecords = 200;
  auto encoder = pbio::Encoder::make(reading_format(sender_registry)).value();
  std::vector<float> series(4000, 0.25f);
  char site[] = "history";
  for (int id = 0; id < kRecords; ++id) {
    Reading in{id, static_cast<std::int32_t>(series.size()), series.data(),
               site};
    ASSERT_TRUE(sender.send(encoder, &in).is_ok()) << "record " << id;
    ASSERT_TRUE(sink.receive_view(2000).is_ok()) << "record " << id;
  }
  ASSERT_EQ(sender.durable_last_seq(), static_cast<std::uint64_t>(kRecords));

  auto replay = net::Channel::pipe().value();
  sender.attach(std::move(replay.first));
  SessionOptions subscriber;
  subscriber.resumable = true;
  subscriber.heartbeat_interval_ms = 60000;
  subscriber.liveness_deadline_ms = 60000;
  MessageSession cold(std::move(replay.second), cold_registry, subscriber);
  ASSERT_TRUE(cold.request_replay(1).is_ok());

  // 3 ms per record: the whole history takes at least twice the deadline
  // to read, while no single stall comes near it.
  std::vector<std::int32_t> ids;
  std::thread reader([&] {
    while (ids.size() < static_cast<std::size_t>(kRecords)) {
      auto incoming = cold.receive_view(3000);
      if (!incoming.is_ok()) return;
      auto record = pbio::RecordReader::make(incoming.value().bytes,
                                             incoming.value().sender_format);
      auto id = record.is_ok() ? record.value().get_int("id")
                               : Result<std::int64_t>(record.status());
      ids.push_back(id.is_ok() ? static_cast<std::int32_t>(id.value()) : -1);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  // The sender answers the request by streaming its log; afterwards it
  // only waits, so the call ends in a timeout.
  auto answered = sender.receive_view(100);
  reader.join();
  ASSERT_FALSE(answered.is_ok());
  EXPECT_EQ(answered.code(), ErrorCode::kTimeout);
  EXPECT_EQ(sender.transport_losses(), 0u);

  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kRecords));
  for (int id = 0; id < kRecords; ++id)
    ASSERT_EQ(ids[static_cast<std::size_t>(id)], id) << "at position " << id;
  EXPECT_EQ(cold.malformed_frames(), 0u);
}

struct Tally {
  std::int32_t id;
  std::int32_t n;
  std::int32_t* counts;
};

pbio::FormatPtr tally_format(pbio::FormatRegistry& registry) {
  return registry
      .register_format("Tally",
                       {{"id", "integer", 4, offsetof(Tally, id)},
                        {"n", "integer", 4, offsetof(Tally, n)},
                        {"counts", "integer[n]", 4, offsetof(Tally, counts)}},
                       sizeof(Tally))
      .value();
}

// A durable sender answers a replay request with its logged history. The
// wire is what one frame per write would carry — each announcement ahead
// of its format's first record, then every record as [0x02 | seq LE |
// the logged bytes] — but the writer gathers the frames into runs.
TEST(Session, ReplayedHistoryIsTheLogFrameForFrameAndGathered) {
  char tmpl[] = "/tmp/xmit_session_XXXXXX";
  const std::filesystem::path dir = ::mkdtemp(tmpl);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};

  pbio::FormatRegistry sender_registry, sink_registry;
  auto live = net::Channel::pipe().value();
  SessionOptions durable;
  durable.heartbeat_interval_ms = 60000;
  durable.liveness_deadline_ms = 5000;
  durable.durable_dir = dir.string();
  durable.durable_fsync = storage::FsyncPolicy::kNone;
  // The history spans several segments, so runs meet segment switches.
  durable.durable_segment_bytes = 128u << 10;
  MessageSession sender(std::move(live.first), sender_registry, durable);
  MessageSession sink(std::move(live.second), sink_registry);
  ASSERT_TRUE(sender.durable_status().is_ok())
      << sender.durable_status().to_string();

  // 1,000 records of two formats, 40 B to 2 KB each.
  constexpr std::uint64_t kRecords = 1000;
  auto readings = pbio::Encoder::make(reading_format(sender_registry)).value();
  auto tallies = pbio::Encoder::make(tally_format(sender_registry)).value();
  std::vector<float> series(480, 0.5f);
  std::vector<std::int32_t> counts(480, 7);
  char site[] = "gathered";
  std::vector<std::vector<std::uint8_t>> logged;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    const auto n = static_cast<std::int32_t>(i * 37 % 470 + 1);
    Status sent;
    if (i % 5 < 3) {
      Reading record{id, n, series.data(), site};
      sent = sender.send(readings, &record);
    } else {
      Tally record{id, n, counts.data()};
      sent = sender.send(tallies, &record);
    }
    ASSERT_TRUE(sent.is_ok()) << "record " << i << ": " << sent.to_string();
    auto incoming = sink.receive_view(2000);
    ASSERT_TRUE(incoming.is_ok()) << "record " << i;
    logged.emplace_back(incoming.value().bytes.begin(),
                        incoming.value().bytes.end());
  }

  std::size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    segments += entry.path().extension() == ".log" ? 1 : 0;
  ASSERT_GT(segments, 4u);

  // A raw peer asks for the whole history and reads every frame.
  auto replay = net::Channel::pipe().value();
  sender.attach(std::move(replay.first));
  net::Channel peer = std::move(replay.second);
  std::uint8_t request[1 + 8] = {0x07};
  store_with_order<std::uint64_t>(request + 1, 1, ByteOrder::kLittle);
  ASSERT_TRUE(peer.send(std::span<const std::uint8_t>(request)).is_ok());
  Status answered;
  std::jthread answering(
      [&] { answered = sender.receive_view(300).status(); });

  std::size_t frames = 0;
  std::set<pbio::FormatId> announced;
  std::vector<std::uint8_t> frame;
  for (std::uint64_t seq = 1; seq <= kRecords;) {
    ASSERT_TRUE(peer.receive_into(frame, 5000).is_ok()) << "at seq " << seq;
    ++frames;
    ASSERT_FALSE(frame.empty());
    const std::span<const std::uint8_t> body(frame.data() + 1,
                                             frame.size() - 1);
    if (frame[0] == 0x01) {
      auto format = pbio::deserialize_format(body);
      ASSERT_TRUE(format.is_ok()) << format.status().to_string();
      EXPECT_TRUE(announced.insert(format.value()->id()).second)
          << "announced twice";
      continue;
    }
    ASSERT_EQ(frame[0], 0x02) << "unexpected frame tag at seq " << seq;
    ASSERT_GE(body.size(), 8u);
    ASSERT_EQ(load_with_order<std::uint64_t>(body.data(), ByteOrder::kLittle),
              seq);
    const auto record = body.subspan(8);
    ASSERT_TRUE(std::equal(record.begin(), record.end(),
                           logged[seq - 1].begin(), logged[seq - 1].end()))
        << "record " << seq << " differs from the logged bytes";
    auto header = pbio::parse_header(record);
    ASSERT_TRUE(header.is_ok());
    ASSERT_TRUE(announced.contains(header.value().format_id))
        << "record " << seq << " ahead of its announcement";
    ++seq;
  }
  answering.join();
  EXPECT_EQ(answered.code(), ErrorCode::kTimeout) << answered.to_string();
  EXPECT_EQ(peer.receive_into(frame, 0).code(), ErrorCode::kTimeout)
      << "frames past the history";
  EXPECT_EQ(announced.size(), 2u);
  EXPECT_EQ(frames, kRecords + 2);
  EXPECT_EQ(sender.channel().messages_sent(), frames);
  // One sendmsg per frame would be 1,002 calls.
  EXPECT_LE(sender.channel().send_calls() * 16, frames)
      << sender.channel().send_calls() << " sendmsg calls";
}

}  // namespace
}  // namespace xmit::session

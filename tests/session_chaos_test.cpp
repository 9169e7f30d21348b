// Deterministic chaos matrix for resumable sessions.
//
// The central claim of the resumption layer is byte-level: *no matter
// which wire byte the transport dies on*, a resumable session pair
// recovers with zero lost, zero duplicated, in-order records. The matrix
// test proves it exhaustively — a dry run measures the total wire bytes
// of a 50-frame mixed announcement/record script, then the script is
// re-run once per byte offset with the first transport armed to die at
// exactly that byte. Socketpair kills preserve already-written bytes in
// the kernel buffer, so every scenario is fully deterministic.
//
// TCP flavours (sampled offsets, including abortive RST closes that may
// destroy in-flight data) run with a real listener and a concurrent
// accept/attach thread, which is what makes this suite meaningful under
// TSan as well as ASan.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/faults.hpp"
#include "pbio/dynrecord.hpp"
#include "session/session.hpp"

namespace xmit::session {
namespace {

struct ChaosA {
  std::int32_t id;
};
struct ChaosB {
  std::int32_t id;
  double v;
};

pbio::FormatPtr chaos_a(pbio::FormatRegistry& registry) {
  return registry
      .register_format("ChaosA", {{"id", "integer", 4, offsetof(ChaosA, id)}},
                       sizeof(ChaosA))
      .value();
}

pbio::FormatPtr chaos_b(pbio::FormatRegistry& registry) {
  return registry
      .register_format("ChaosB",
                       {{"id", "integer", 4, offsetof(ChaosB, id)},
                        {"v", "float", 8, offsetof(ChaosB, v)}},
                       sizeof(ChaosB))
      .value();
}

// Options that make byte-stream scenarios deterministic: heartbeats and
// liveness far beyond any test's runtime, so no ping ever rides the wire.
SessionOptions quiet_options() {
  SessionOptions options;
  options.resumable = true;
  options.heartbeat_interval_ms = 60000;
  options.liveness_deadline_ms = 60000;
  return options;
}

// An Endpoint over socketpairs: each dial makes a fresh pipe, hands the
// session one end (armed with the scenario's fault on the chosen dial)
// and queues the other end for the harness to attach to the receiver.
struct PipeRedialer {
  std::mutex mutex;
  std::deque<net::Channel> peers;
  net::InjectedFailure mode = net::InjectedFailure::kNone;
  std::size_t kill_at_dial = 0;
  std::size_t byte_budget = 0;
  std::size_t dials = 0;

  net::Endpoint endpoint() {
    return net::Endpoint::custom(
        "pipe-redialer", [this]() -> Result<net::Channel> {
          auto pipe = net::Channel::pipe();
          if (!pipe.is_ok()) return pipe.status();
          std::lock_guard<std::mutex> lock(mutex);
          net::Channel mine = std::move(pipe.value().first);
          if (dials == kill_at_dial && mode != net::InjectedFailure::kNone)
            mine.arm_failure(mode, byte_budget);
          ++dials;
          peers.push_back(std::move(pipe.value().second));
          return mine;
        });
  }

  bool take_peer(net::Channel* out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (peers.empty()) return false;
    *out = std::move(peers.front());
    peers.pop_front();
    return true;
  }
};

constexpr int kScriptRecords = 50;
constexpr int kFormatSwitchAt = 20;  // mid-script announcement boundary

// Sends the mixed script: ChaosA records 0..19, then ChaosB (a second
// in-band announcement) 20..49. Every send must succeed — resumable
// sessions absorb transport deaths internally.
void run_script(MessageSession& sender, pbio::FormatRegistry& registry) {
  auto a_format = chaos_a(registry);
  auto b_format = chaos_b(registry);
  auto a_encoder = pbio::Encoder::make(a_format).value();
  auto b_encoder = pbio::Encoder::make(b_format).value();
  for (int i = 0; i < kScriptRecords; ++i) {
    Status sent;
    if (i < kFormatSwitchAt) {
      ChaosA record{i};
      sent = sender.send(a_encoder, &record);
    } else {
      ChaosB record{i, i * 0.5};
      sent = sender.send(b_encoder, &record);
    }
    ASSERT_TRUE(sent.is_ok()) << "send " << i << ": " << sent.to_string();
  }
}

std::int32_t record_id(const MessageSession::IncomingView& incoming) {
  auto reader = pbio::RecordReader::make(incoming.bytes,
                                         incoming.sender_format);
  if (!reader.is_ok()) return -1;
  auto id = reader.value().get_int("id");
  return id.is_ok() ? static_cast<std::int32_t>(id.value()) : -1;
}

// Drains the receiver to exhaustion: reads until the current transport
// has nothing more, then installs the next queued replacement, until
// neither yields anything. Single-threaded and deterministic.
void drain(MessageSession& receiver, PipeRedialer& redialer,
           std::vector<std::int32_t>& got) {
  for (;;) {
    auto incoming = receiver.receive_view(0);
    if (incoming.is_ok()) {
      got.push_back(record_id(incoming.value()));
      continue;
    }
    const ErrorCode code = incoming.status().code();
    ASSERT_EQ(code, ErrorCode::kTimeout)
        << "receiver surfaced " << incoming.status().to_string();
    net::Channel replacement;
    if (!redialer.take_peer(&replacement)) return;
    receiver.attach(std::move(replacement));
  }
}

// One matrix scenario: the first dialed transport dies after
// `kill_at_byte` outgoing wire bytes. Returns the sender's total wire
// bytes (meaningful in the dry run) via *total_bytes when non-null.
void run_kill_scenario(net::InjectedFailure mode, std::size_t kill_at_byte,
                       std::size_t* total_bytes) {
  pbio::FormatRegistry registry_a, registry_b;
  PipeRedialer redialer;
  redialer.mode = mode;
  redialer.byte_budget = kill_at_byte;

  MessageSession sender(redialer.endpoint(), registry_a, quiet_options());
  ASSERT_TRUE(sender.connect_now().is_ok());
  net::Channel first_peer;
  ASSERT_TRUE(redialer.take_peer(&first_peer));
  MessageSession receiver(std::move(first_peer), registry_b, quiet_options());

  run_script(sender, registry_a);
  if (total_bytes != nullptr) *total_bytes = sender.channel().bytes_sent();

  std::vector<std::int32_t> got;
  drain(receiver, redialer, got);

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kScriptRecords))
      << "mode=" << static_cast<int>(mode) << " kill_at=" << kill_at_byte
      << " lost/duplicated records (receiver saw " << got.size() << ")";
  for (int i = 0; i < kScriptRecords; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i)
        << "out-of-order at position " << i << " (kill_at=" << kill_at_byte
        << ")";
  if (mode != net::InjectedFailure::kNone && kill_at_byte > 0) {
    EXPECT_GE(sender.transport_losses(), 1u) << "kill never fired";
    EXPECT_GE(receiver.reconnects(), 1u);
  }
  sender.close();
  receiver.close();
}

TEST(SessionChaos, PerByteKillMatrixOverPipes) {
  // Dry run: no fault, measures the script's exact wire length and
  // checks the baseline delivers everything.
  std::size_t total = 0;
  run_kill_scenario(net::InjectedFailure::kNone, 0, &total);
  if (HasFatalFailure()) return;
  ASSERT_GT(total, 0u);

  // Kill at every byte boundary of the scripted stream.
  for (std::size_t k = 0; k < total; ++k) {
    run_kill_scenario(net::InjectedFailure::kKillAfterBytes, k, nullptr);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "matrix aborted at kill offset " << k << " of "
                    << total;
      return;
    }
  }
}

TEST(SessionChaos, QuarantineAndBudgetsSurviveReconnect) {
  // State preserved across reconnects: the malformed-frame budget a
  // hostile peer drew down must not reset when the transport changes.
  pbio::FormatRegistry registry_b;
  auto pipe = net::Channel::pipe().value();
  net::Channel raw = std::move(pipe.first);
  SessionOptions options = quiet_options();
  options.liveness_deadline_ms = 2000;
  MessageSession receiver(std::move(pipe.second), registry_b, options);
  DecodeLimits limits;
  limits.max_malformed_frames = 3;
  receiver.set_limits(limits);

  const std::vector<std::uint8_t> junk = {0x02, 0xFF};  // short data frame
  ASSERT_TRUE(raw.send(junk).is_ok());
  ASSERT_TRUE(raw.send(junk).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());
  EXPECT_EQ(receiver.malformed_frames(), 2u);
  raw.close();

  auto next = net::Channel::pipe().value();
  receiver.attach(std::move(next.second));
  net::Channel raw2 = std::move(next.first);
  ASSERT_TRUE(raw2.send(junk).is_ok());
  ASSERT_TRUE(raw2.send(junk).is_ok());
  EXPECT_FALSE(receiver.receive(200).is_ok());  // third strike
  auto poisoned = receiver.receive(200);        // fourth blows the budget
  ASSERT_FALSE(poisoned.is_ok());
  EXPECT_EQ(poisoned.code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(receiver.poisoned());
  EXPECT_EQ(receiver.malformed_frames(), 4u);  // carried across the attach
  EXPECT_EQ(receiver.reconnects(), 1u);
}

TEST(SessionChaos, TcpKillAndRstSubset) {
  const net::FaultAction faults[] = {
      net::FaultAction::kill_after(3),   net::FaultAction::kill_after(26),
      net::FaultAction::kill_after(41),  net::FaultAction::kill_after(120),
      net::FaultAction::reset_after(7),  net::FaultAction::reset_after(55),
      net::FaultAction::reset_after(200),
  };
  for (const net::FaultAction& fault : faults) {
    pbio::FormatRegistry registry_a, registry_b;
    auto tcp = make_session_tcp(registry_a, registry_b, quiet_options());
    ASSERT_TRUE(tcp.is_ok()) << tcp.status().to_string();
    auto& pair = tcp.value();
    net::arm_channel(pair.a.channel(), fault);

    std::atomic<bool> stop{false};
    std::thread acceptor([&] {
      while (!stop.load()) {
        auto accepted = pair.listener.accept(50);
        if (accepted.is_ok()) pair.b.attach(std::move(accepted).value());
      }
    });

    constexpr int kRecords = 20;
    auto format = chaos_a(registry_a);
    auto encoder = pbio::Encoder::make(format).value();
    for (int i = 0; i < kRecords; ++i) {
      ChaosA record{i};
      auto sent = pair.a.send(encoder, &record);
      ASSERT_TRUE(sent.is_ok()) << sent.to_string();
    }

    std::vector<std::int32_t> got;
    for (int spins = 0; spins < 200 && got.size() < kRecords; ++spins) {
      auto incoming = pair.b.receive_view(500);
      if (incoming.is_ok()) {
        got.push_back(record_id(incoming.value()));
        continue;
      }
      ASSERT_EQ(incoming.status().code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
    }
    stop.store(true);
    acceptor.join();

    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRecords))
        << "budget=" << fault.byte_budget
        << " kind=" << static_cast<int>(fault.kind);
    for (int i = 0; i < kRecords; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    EXPECT_GE(pair.a.transport_losses(), 1u);
    pair.a.close();
    pair.b.close();
  }
}

// A transport that dies while an announcement is part-way onto the wire:
// a passive flow-controlled sender re-sends the whole announcement on the
// next transport, ahead of the first record that needs it. `kill_at` > 0
// kills the first transport after that many bytes; 0 leaves it stalled
// with the announcement stuck mid-wire, and then drops it.
void run_cut_announcement(std::size_t kill_at) {
  // A schema too large for a socket buffer: with nobody reading, its
  // announcement always stops part-way.
  std::vector<pbio::IOField> fields;
  const std::string padding(1000, 'x');
  for (std::uint32_t i = 0; i < 400; ++i) {
    std::string name = std::to_string(i);
    name.insert(0, 1, 'f');
    fields.push_back({name + padding, "integer", 4, 4 * i});
  }
  pbio::FormatRegistry registry_s, registry_r;
  auto wide = registry_s.register_format("Wide", fields, 4 * 400).value();
  SessionOptions options = quiet_options();
  options.flow_control = true;

  auto first = net::Channel::pipe().value();
  if (kill_at > 0)
    first.first.arm_failure(net::InjectedFailure::kKillAfterBytes, kill_at);
  MessageSession sender(std::move(first.first), registry_s, options);
  ASSERT_TRUE(sender.announce(*wide).is_ok());
  ASSERT_EQ(sender.channel().bytes_sent(), 0u) << "announcement went whole";
  first.second.close();  // the peer dies with the announcement half-read

  auto second = net::Channel::pipe().value();
  sender.attach(std::move(second.first));
  SessionOptions receiving;
  receiving.flow_control = true;
  MessageSession receiver(std::move(second.second), registry_r, receiving);
  std::vector<std::int32_t> record(400);
  for (std::size_t i = 0; i < record.size(); ++i)
    record[i] = static_cast<std::int32_t>(i);
  auto encoder = pbio::Encoder::make(wide).value();
  ASSERT_TRUE(sender.send(encoder, record.data()).is_ok());

  // Single-threaded: each side pumps in turn until the record lands.
  Result<MessageSession::IncomingView> incoming =
      Status(ErrorCode::kTimeout, "not yet");
  for (int turn = 0; turn < 2000 && !incoming.is_ok(); ++turn) {
    (void)sender.receive_view(0);
    incoming = receiver.receive_view(1);
    if (!incoming.is_ok()) {
      ASSERT_EQ(incoming.code(), ErrorCode::kTimeout)
          << incoming.status().to_string();
    }
  }
  ASSERT_TRUE(incoming.is_ok()) << incoming.status().to_string();
  EXPECT_EQ(incoming.value().sender_format->id(), wide->id());
  auto reader = pbio::RecordReader::make(incoming.value().bytes,
                                         incoming.value().sender_format);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().get_int("f399" + padding).value(), 399);
  EXPECT_EQ(receiver.announcements_received(), 1u);
  EXPECT_EQ(receiver.malformed_frames(), 0u);
}

TEST(SessionChaos, AnnouncementCutMidWireGoesOutWholeOnTheNextTransport) {
  run_cut_announcement(0);
}

TEST(SessionChaos, AnnouncementKilledMidWriteGoesOutWholeOnTheNextTransport) {
  run_cut_announcement(1000);
}

// --- a history batch cut by a dying transport ----------------------------
//
// A durable sender answers a replay request with runs of frames, each run
// one gathered write. Killing the transport inside one must cost the
// subscriber nothing: what was whole on the wire is delivered, the rest
// comes back on the next transport, each record once and after its
// announcement.

struct ChaosSized {
  std::int32_t id;
  std::int32_t n;
  float* values;
};

pbio::FormatPtr chaos_sized(pbio::FormatRegistry& registry) {
  return registry
      .register_format("ChaosSized",
                       {{"id", "integer", 4, offsetof(ChaosSized, id)},
                        {"n", "integer", 4, offsetof(ChaosSized, n)},
                        {"values", "float[n]", 4,
                         offsetof(ChaosSized, values)}},
                       sizeof(ChaosSized))
      .value();
}

constexpr int kHistoryRecords = 300;

SessionOptions durable_options(const std::string& dir) {
  SessionOptions options = quiet_options();
  options.durable_dir = dir;
  options.durable_fsync = storage::FsyncPolicy::kNone;
  return options;
}

// Logs 300 records of two formats, 40 B to 2 KB each, into `dir`.
void write_history(const std::string& dir) {
  pbio::FormatRegistry registry, sink_registry;
  auto pipe = net::Channel::pipe().value();
  MessageSession sender(std::move(pipe.first), registry, durable_options(dir));
  MessageSession sink(std::move(pipe.second), sink_registry);
  ASSERT_TRUE(sender.durable_status().is_ok());
  auto small = pbio::Encoder::make(chaos_b(registry)).value();
  auto sized = pbio::Encoder::make(chaos_sized(registry)).value();
  std::vector<float> values(480, 0.25f);
  for (int i = 0; i < kHistoryRecords; ++i) {
    Status sent;
    if (i % 3 == 0) {
      ChaosB record{i, i * 0.5};
      sent = sender.send(small, &record);
    } else {
      ChaosSized record{i, i * 37 % 470 + 1, values.data()};
      sent = sender.send(sized, &record);
    }
    ASSERT_TRUE(sent.is_ok()) << sent.to_string();
    ASSERT_TRUE(sink.receive_view(2000).is_ok()) << "record " << i;
  }
}

// The wire offsets at which the frames answering a replay request from 1
// end, read by a raw peer.
std::vector<std::size_t> history_frame_ends(const std::string& dir) {
  pbio::FormatRegistry registry;
  auto pipe = net::Channel::pipe().value();
  MessageSession sender(std::move(pipe.first), registry, durable_options(dir));
  net::Channel peer = std::move(pipe.second);
  const std::uint8_t request[9] = {0x07, 1};  // [tag | u64 LE 1]
  EXPECT_TRUE(peer.send(std::span<const std::uint8_t>(request)).is_ok());
  std::jthread answering([&] { (void)sender.receive_view(300); });
  std::vector<std::size_t> ends;
  std::size_t offset = 0;
  std::vector<std::uint8_t> frame;
  for (int records = 0; records < kHistoryRecords;) {
    if (!peer.receive_into(frame, 5000).is_ok()) break;
    offset += net::kFrameHeaderBytes + frame.size();
    ends.push_back(offset);
    if (frame[0] == 0x02) ++records;
  }
  return ends;
}

// Replays the history in `dir` to a cold subscriber over a transport that
// dies after `kill_at` wire bytes, then over a fresh one from the record
// after the last delivered. Returns the ids in delivery order.
std::vector<std::int32_t> replay_across_a_kill(const std::string& dir,
                                               std::size_t kill_at) {
  pbio::FormatRegistry sender_registry, cold_registry;
  auto first = net::Channel::pipe().value();
  first.first.arm_failure(net::InjectedFailure::kKillAfterBytes, kill_at);
  MessageSession sender(std::move(first.first), sender_registry,
                        durable_options(dir));
  MessageSession cold(std::move(first.second), cold_registry,
                      quiet_options());
  std::atomic<bool> done{false};
  std::jthread answering([&] {
    while (!done.load()) (void)sender.receive_view(1);
  });
  // Closing the subscriber's end fails any write the sender has left, so
  // its thread ends promptly.
  struct Stop {
    std::atomic<bool>& done;
    MessageSession& cold;
    ~Stop() {
      cold.close();
      done.store(true);
    }
  } stop{done, cold};

  std::vector<std::int32_t> ids;
  EXPECT_TRUE(cold.request_replay(1).is_ok());
  // Whatever the first transport carried whole, until it is gone.
  for (;;) {
    auto incoming = cold.receive_view(1);
    if (incoming.is_ok()) {
      ids.push_back(record_id(incoming.value()));
      continue;
    }
    EXPECT_EQ(incoming.code(), ErrorCode::kTimeout)
        << incoming.status().to_string();
    if (!cold.channel().is_open() || ::testing::Test::HasFailure()) break;
  }
  auto second = net::Channel::pipe().value();
  sender.attach(std::move(second.first));
  cold.attach(std::move(second.second));
  EXPECT_TRUE(cold.request_replay(ids.size() + 1).is_ok());
  while (ids.size() < static_cast<std::size_t>(kHistoryRecords)) {
    auto incoming = cold.receive_view(5000);
    if (!incoming.is_ok()) {
      ADD_FAILURE() << "after " << ids.size() << " records: "
                    << incoming.status().to_string();
      break;
    }
    ids.push_back(record_id(incoming.value()));
  }
  EXPECT_EQ(cold.malformed_frames(), 0u) << "kill_at=" << kill_at;
  return ids;
}

TEST(SessionChaos, HistoryBatchKilledAtEveryByteResumesExactlyOnce) {
  char tmpl[] = "/tmp/xmit_chaos_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{dir};
  write_history(dir);
  if (HasFatalFailure()) return;
  const std::vector<std::size_t> ends = history_frame_ends(dir);
  ASSERT_GE(ends.size(), static_cast<std::size_t>(kHistoryRecords));

  // A run starts frames while under kSendBatchBytes, so the first two end
  // within two batches plus a frame each. Killing at every byte of them
  // takes minutes; the frame boundaries and a byte either side cover
  // every way a kill can fall against a frame.
  const std::size_t two_batches = 2 * (net::kSendBatchBytes + 4096);
  std::set<std::size_t> kills = {0, 1};
  for (const std::size_t end : ends) {
    if (end > two_batches) break;
    kills.insert({end - 1, end, end + 1});
  }
  ASSERT_LT(*kills.rbegin(), ends.back()) << "the kill must fall in the stream";
  for (const std::size_t kill_at : kills) {
    const std::vector<std::int32_t> ids = replay_across_a_kill(dir, kill_at);
    ASSERT_EQ(ids.size(), static_cast<std::size_t>(kHistoryRecords))
        << "kill_at=" << kill_at;
    for (int i = 0; i < kHistoryRecords; ++i)
      ASSERT_EQ(ids[static_cast<std::size_t>(i)], i)
          << "kill_at=" << kill_at << " position " << i;
  }
}

TEST(SessionChaos, AcceptThenHangTriggersLivenessTimeout) {
  // The "process alive, application wedged" persona: the peer accepts
  // the reconnect but never speaks. The liveness deadline must convert
  // that silence into a bounded kTimeout.
  pbio::FormatRegistry registry_a;
  auto hang = net::HangingAcceptor::listen().value();
  SessionOptions options;
  options.resumable = true;
  options.heartbeat_interval_ms = 50;
  options.liveness_deadline_ms = 300;
  MessageSession sender(net::Endpoint::tcp("127.0.0.1", hang.port()),
                        registry_a, options);
  ASSERT_TRUE(sender.connect_now().is_ok());
  ASSERT_TRUE(hang.accept_and_hang(1000).is_ok());

  Stopwatch elapsed;
  auto incoming = sender.receive(5000);
  ASSERT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kTimeout);
  EXPECT_NE(incoming.status().message().find("liveness"), std::string::npos)
      << incoming.status().message();
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);  // liveness, not the caller budget
  sender.close();  // detected peer death leaves the session closeable
  EXPECT_EQ(sender.receive(100).code(), ErrorCode::kIoError);
}

TEST(SessionChaos, PassivePeerThatNeverResumesSurfacesTimeout) {
  pbio::FormatRegistry registry_b;
  auto pipe = net::Channel::pipe().value();
  SessionOptions options;
  options.resumable = true;
  options.liveness_deadline_ms = 200;
  MessageSession receiver(std::move(pipe.second), registry_b, options);
  pipe.first.close();  // the peer dies and never dials back

  Stopwatch elapsed;
  auto incoming = receiver.receive(5000);
  ASSERT_FALSE(incoming.is_ok());
  EXPECT_EQ(incoming.code(), ErrorCode::kTimeout);
  EXPECT_NE(incoming.status().message().find("never resumed"),
            std::string::npos)
      << incoming.status().message();
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);
  receiver.close();
  EXPECT_EQ(receiver.receive(100).code(), ErrorCode::kIoError);
}

TEST(SessionChaos, ActivePeerWithDeadEndpointSurfacesTimeout) {
  // Find a port with nothing listening by binding and releasing it.
  std::uint16_t dead_port = 0;
  {
    auto listener = net::ChannelListener::listen().value();
    dead_port = listener.port();
  }
  pbio::FormatRegistry registry_a;
  SessionOptions options;
  options.resumable = true;
  options.liveness_deadline_ms = 300;
  options.reconnect_backoff.initial_backoff_ms = 10;
  options.reconnect_backoff.max_backoff_ms = 50;
  MessageSession sender(net::Endpoint::tcp("127.0.0.1", dead_port),
                        registry_a, options);
  Stopwatch elapsed;
  auto connected = sender.connect_now();
  ASSERT_FALSE(connected.is_ok());
  EXPECT_EQ(connected.code(), ErrorCode::kTimeout);
  EXPECT_LT(elapsed.elapsed_ms(), 4000.0);
  sender.close();
}

}  // namespace
}  // namespace xmit::session

#include "phases.hpp"

#include <sched.h>

#include <atomic>
#include <exception>
#include <set>
#include <thread>

#include "pbio/wire.hpp"

namespace perfbench {
namespace {

constexpr int kReceiveTimeoutMs = 10000;

// Runs `body` on a thread, carrying any failure back to join().
class Worker {
 public:
  template <typename Fn>
  explicit Worker(Fn body)
      : thread_([this, body = std::move(body)]() mutable {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker() {
    if (thread_.joinable()) thread_.join();
  }
  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace

void run_interleaved(double seconds, const std::vector<Slice>& slices) {
  const double start = now_s();
  do {
    for (const Slice& slice : slices) slice.run(slice.share * kCycleSeconds);
  } while (now_s() - start < seconds);
}

namespace {

// Receiver formats of every record of the traffic, in order.
std::vector<const pbio::Format*> receiver_formats(const Traffic& traffic) {
  std::vector<const pbio::Format*> formats(traffic.size());
  for (std::size_t i = 0; i < formats.size(); ++i)
    formats[i] = &traffic.receiver_format(i);
  return formats;
}

}  // namespace

void stream_phase(session::SessionPair& pair, const Traffic& traffic,
                  const pbio::Decoder& decoder, std::size_t window,
                  double budget_s, Figures& figures, Ops& ops,
                  InPlace* in_place) {
  const std::size_t n = traffic.size();
  const std::vector<const pbio::Format*> formats = receiver_formats(traffic);
  const std::span<const pbio::Format* const> all(formats);
  std::vector<StructSlot> slots(window);
  std::vector<const void*> decoded(window);
  xmit::Arena arena;
  std::uint64_t round_native = 0;
  for (std::size_t i = 0; i < n; ++i) round_native += traffic.native_bytes(i);

  const ProcessTimes cpu_start = process_times();
  const std::size_t wire_start = pair.a.channel().bytes_sent();
  const std::size_t frames_start = pair.a.channel().messages_sent();
  std::uint64_t records = 0;
  const double start = now_s();
  do {
    double busy = 0;
    for (std::size_t base = 0; base < n; base += window) {
      const std::size_t count = std::min(window, n - base);
      const double t0 = now_s();
      if (in_place == nullptr) {
        for (std::size_t j = 0; j < count; ++j)
          expect_ok(traffic.send(pair.a, base + j), "send");
      } else {
        for (std::size_t j = 0; j < count; ++j) {
          const double s0 = now_s();
          expect_ok(traffic.send(pair.a, base + j), "send");
          in_place->send_s += now_s() - s0;
        }
      }
      const double t1 = now_s();
      traffic.receive(pair.b, all.subspan(base, count), decoder, arena,
                      slots.data(), decoded.data());
      const double t2 = now_s();
      busy += t2 - t0;
      if (in_place != nullptr) in_place->recv_s += t2 - t1;
      for (std::size_t j = 0; j < count; ++j)
        traffic.check_decoded(base + j, decoded[j]);
      arena.rewind();
    }
    records += n;
    ops.records_sent += n;
    ops.records_received += n;
    ops.records_decoded += n;
    const double rate = static_cast<double>(n) / busy;
    if (in_place == nullptr) {
      figures.round_rate.push_back(rate);
      figures.round_mb.push_back(static_cast<double>(round_native) / busy /
                                 1e6);
    } else {
      in_place->round_rate.push_back(rate);
    }
  } while (now_s() - start < budget_s);
  const ProcessTimes cpu_end = process_times();
  if (in_place != nullptr) {
    in_place->records += records;
    return;
  }
  StreamTotals& totals = figures.stream;
  totals.records += static_cast<double>(records);
  totals.cpu_s += cpu_end.cpu_s - cpu_start.cpu_s;
  totals.wire_bytes +=
      static_cast<double>(pair.a.channel().bytes_sent() - wire_start);
  totals.frames +=
      static_cast<double>(pair.a.channel().messages_sent() - frames_start);
  totals.voluntary_switches += static_cast<double>(
      cpu_end.voluntary_switches - cpu_start.voluntary_switches);
}

void latency_phase(session::SessionPair& pair, const Traffic& traffic,
                   const pbio::Decoder& decoder, double budget_s,
                   Figures& figures, Ops& ops) {
  const std::size_t n = traffic.size();
  const std::vector<const pbio::Format*> formats = receiver_formats(traffic);
  const std::span<const pbio::Format* const> all(formats);
  StructSlot slot;
  xmit::Arena arena;
  std::vector<double> samples;
  const double start = now_s();
  do {
    samples.clear();
    for (std::size_t pass = 0; pass < latency_passes(n); ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        const void* out = nullptr;
        const double t0 = now_s();
        expect_ok(traffic.send(pair.a, i), "send");
        traffic.receive(pair.b, all.subspan(i, 1), decoder, arena, &slot,
                        &out);
        samples.push_back((now_s() - t0) * 1e6);
        traffic.check_decoded(i, out);
        arena.rewind();
      }
      ops.records_sent += n;
      ops.records_received += n;
      ops.records_decoded += n;
    }
    add_latency_round(samples, figures);
  } while (now_s() - start < budget_s);
}

void add_latency_round(const std::vector<double>& samples, Figures& figures) {
  figures.latency_p50_us.push_back(quantile(samples, 0.5));
  figures.latency_p90_us.push_back(quantile(samples, 0.9));
}

session::SessionOptions durable_sender_options(const std::string& dir) {
  session::SessionOptions options;
  options.durable_dir = dir;
  options.durable_fsync = kDurableFsync;
  options.flow_control = true;
  options.slow_consumer = session::SlowConsumerPolicy::kBlockWithDeadline;
  // A queue of 64 (policy at 48) against the receiver's 32-record credit
  // window: the sender runs ahead, fills the queue and blocks for credit.
  options.send_queue_records = 64;
  options.send_queue_bytes = 512u << 10;
  // A run-long durable pair (the latency ends) would otherwise log about
  // 20 MB/s for the whole run; a round's log stays inside one segment.
  options.durable_retention_segments = 4;
  options.liveness_deadline_ms = 30000;
  return options;
}

session::SessionOptions flow_receiver_options() {
  session::SessionOptions options;
  options.flow_control = true;
  options.receive_window_records = 32;
  options.liveness_deadline_ms = 30000;
  return options;
}

void prime_flow_control(session::MessageSession& receiver) {
  auto none = receiver.receive_view(0);
  check(!none.is_ok() && none.code() == xmit::ErrorCode::kTimeout,
        "flow-controlled receiver saw traffic before its first grant");
}

namespace {

// Next record at `receiver` when one thread drives both ends of a flow-
// controlled pair: only the sender's own calls pump its queue, so while
// nothing is waiting the sender is turned over (grants absorbed, queue
// pumped) until the record arrives.
session::MessageSession::IncomingView receive_pumping(
    session::MessageSession& receiver, session::MessageSession& sender) {
  const double deadline = now_s() + kReceiveTimeoutMs * 1e-3;
  for (;;) {
    auto view = receiver.receive_view(0);
    if (view.is_ok()) return std::move(view).value();
    if (view.code() != xmit::ErrorCode::kTimeout)
      fail("live receive: " + view.status().to_string());
    check(now_s() < deadline, "live receive: nothing arrived");
    auto idle = sender.receive_view(0);
    if (idle.is_ok()) fail("durable sender received a data record");
  }
}

// The pressure variant of a round's live phase: a receiver thread drains,
// decodes and checks every record, taking at least kSlowConsumerUs per
// record, so the sender always runs ahead into its slow-consumer policy
// and blocks for credit. Returns the live phase's seconds.
constexpr double kSlowConsumerUs = 20;

double live_on_two_threads(const Traffic& traffic,
                           session::MessageSession& sender,
                           session::MessageSession& receiver,
                           pbio::FormatRegistry& live_registry, Ops& ops) {
  const std::size_t n = traffic.size();
  std::atomic<bool> live_done{false};
  double live_end = 0;
  const double live_start = now_s();
  Worker drain([&] {
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true); }
    } done{live_done};
    pbio::Decoder decoder(live_registry);
    StructSlot slot;
    xmit::Arena arena;
    for (std::size_t i = 0; i < n; ++i) {
      const double paced = now_s() + kSlowConsumerUs * 1e-6;
      auto view =
          expect(receiver.receive_view(kReceiveTimeoutMs), "live receive");
      const void* out =
          decode_record(traffic, i, view.bytes, decoder, arena, slot);
      check_wire(traffic, i, view.bytes);
      traffic.check_decoded(i, out);
      arena.rewind();
      while (now_s() < paced) {
      }
    }
    live_end = now_s();
  });
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n && !live_done.load(); ++i) {
    expect_ok(traffic.send(sender, i), "durable send");
    ++accepted;
  }
  // Only the sender's own calls pump its queue: keep it turning until the
  // receiver has everything.
  while (!live_done.load()) {
    auto idle = sender.receive_view(1);
    if (idle.is_ok()) fail("durable sender received a data record");
  }
  drain.join();
  check(accepted == n, "durable sender stopped early");
  ops.records_sent += n;
  ops.records_received += n;
  ops.records_decoded += n;
  return live_end - live_start;
}

}  // namespace

DurableRound durable_round(const Traffic& traffic,
                           pbio::FormatRegistry& sender_registry,
                           const std::string& dir, bool traced, bool pressure,
                           Ops& ops) {
  const std::size_t n = traffic.size();
  DurableRound round;
  round.records = n;
  for (std::size_t i = 0; i < n; ++i) round.native_bytes += traffic.native_bytes(i);
  fresh_dir(dir);

  auto pipe = expect(xmit::net::Channel::pipe(), "socketpair");
  session::MessageSession sender(std::move(pipe.first), sender_registry,
                                 durable_sender_options(dir));
  expect_ok(sender.durable_status(), "open write-ahead log");
  pbio::FormatRegistry live_registry;
  session::MessageSession receiver(std::move(pipe.second), live_registry,
                                   flow_receiver_options());
  // Formats are announced (and fsynced into the catalog) before the clock
  // starts: the round times the stream, not catalog set-up.
  std::set<pbio::FormatId> announced;
  for (std::size_t i = 0; i < n; ++i) {
    const auto header = expect(pbio::parse_header(traffic.wire(i)), "header");
    if (!announced.insert(header.format_id).second) continue;
    auto format = expect(sender_registry.by_id(header.format_id), "format");
    expect_ok(sender.announce(*format), "announce");
  }

  const std::size_t wire_start = sender.channel().bytes_sent();
  const std::size_t frames_start = sender.channel().messages_sent();
  const ProcessTimes cpu_start = process_times();
  if (pressure) {
    round.live_s = live_on_two_threads(traffic, sender, receiver,
                                       live_registry, ops);
  } else {
    // Live on one thread, in windows of at most half the receiver's credit
    // window and well under the send queue's byte watermark: every send
    // finds credit and room, so the run measures the credit-driven send
    // path itself and no thread hand-off.
    constexpr std::size_t kWindow = 16;
    constexpr std::size_t kWindowBytes = 256u << 10;
    prime_flow_control(receiver);
    pbio::Decoder decoder(live_registry);
    std::vector<StructSlot> slots(kWindow);
    std::vector<const void*> decoded(kWindow);
    xmit::Arena arena;
    for (std::size_t base = 0, count = 0; base < n; base += count) {
      std::size_t bytes = traffic.wire(base).size();
      count = 1;
      while (count < kWindow && base + count < n &&
             bytes + traffic.wire(base + count).size() <= kWindowBytes)
        bytes += traffic.wire(base + count++).size();
      const double t0 = now_s();
      for (std::size_t j = 0; j < count; ++j) {
        const double s0 = traced ? now_s() : 0;
        expect_ok(traffic.send(sender, base + j), "durable send");
        if (traced) round.send_s += now_s() - s0;
      }
      for (std::size_t j = 0; j < count; ++j) {
        const double r0 = traced ? now_s() : 0;
        auto view = receive_pumping(receiver, sender);
        decoded[j] = decode_record(traffic, base + j, view.bytes, decoder,
                                   arena, slots[j]);
        if (traced) round.recv_s += now_s() - r0;
      }
      round.live_s += now_s() - t0;
      for (std::size_t j = 0; j < count; ++j)
        traffic.check_decoded(base + j, decoded[j]);
      arena.rewind();
    }
    ops.records_sent += n;
    ops.records_received += n;
    ops.records_decoded += n;
  }
  const ProcessTimes cpu_end = process_times();
  round.cpu_s = cpu_end.cpu_s - cpu_start.cpu_s;
  round.voluntary_switches =
      cpu_end.voluntary_switches - cpu_start.voluntary_switches;
  round.wire_bytes = sender.channel().bytes_sent() - wire_start;
  round.frames = sender.channel().messages_sent() - frames_start;
  round.queue_peak = sender.send_queue_depth_peak();
  round.block_ms = sender.send_block_ms();
  round.credit_grants = sender.credit_grants_received();

  // Exactly once, nothing shed, everything logged.
  check(receiver.records_received() == n, "live receiver count");
  check(sender.records_shed() == 0 && receiver.peer_shed_records() == 0,
        "records were shed under kBlockWithDeadline");
  check(receiver.records_received() + receiver.peer_shed_records() ==
            sender.records_sent(),
        "delivered + shed != accepted");
  check(sender.durable_first_seq() == 1 && sender.durable_last_seq() == n,
        "write-ahead log does not hold exactly the round");
  round.log_bytes = segment_bytes(dir);

  // Cold subscriber: a fresh registry asks for the whole history.
  ++ops.replays;
  auto replay_pipe = expect(xmit::net::Channel::pipe(), "socketpair");
  sender.attach(std::move(replay_pipe.first));
  pbio::FormatRegistry cold_registry;
  session::SessionOptions cold_options;
  cold_options.resumable = true;
  cold_options.liveness_deadline_ms = 30000;
  session::MessageSession cold(std::move(replay_pipe.second), cold_registry,
                               cold_options);
  std::atomic<bool> replay_done{false};
  {
    // The pump thread shares the caller's CPU: each full socket buffer
    // hands over on one CPU instead of waking an idle one, whose wake-up
    // latency moves with outside load.
    PinnedThread pin(sched_getcpu() < 0 ? 0 : sched_getcpu());
    Worker pump([&] {
      while (!replay_done.load()) {
        auto idle = sender.receive_view(1);
        if (idle.is_ok()) fail("durable sender received a data record");
      }
    });
    struct Stop {
      std::atomic<bool>& flag;
      ~Stop() { flag.store(true); }
    } stop{replay_done};
    pbio::Decoder decoder(cold_registry);
    StructSlot slot;
    xmit::Arena arena;
    const double replay_start = now_s();
    expect_ok(cold.request_replay(1), "request replay");
    for (std::size_t i = 0; i < n; ++i) {
      auto view = expect(cold.receive_view(kReceiveTimeoutMs), "replay receive");
      check_wire(traffic, i, view.bytes);
      const void* out =
          decode_record(traffic, i, view.bytes, decoder, arena, slot);
      traffic.check_decoded(i, out);
      arena.rewind();
    }
    round.replay_s = now_s() - replay_start;
    replay_done.store(true);
    pump.join();
  }
  check(cold.records_received() == n, "replay count != records appended");
  ops.records_received += n;
  ops.records_decoded += n;
  cold.close();
  sender.close();
  receiver.close();
  return round;
}

void durable_phase(const Traffic& traffic,
                   pbio::FormatRegistry& sender_registry,
                   const std::string& dir, double budget_s, bool traced,
                   Figures& figures, Ops& ops,
                   std::vector<DurableRound>& rounds) {
  const double start = now_s();
  do {
    rounds.push_back(
        durable_round(traffic, sender_registry, dir, traced, false, ops));
    figures.replay_rate.push_back(static_cast<double>(rounds.back().records) /
                                  rounds.back().replay_s);
  } while (now_s() - start < budget_s);
}

}  // namespace perfbench

#include "session/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "analysis/plan_verify.hpp"
#include "common/endian.hpp"
#include "pbio/format_wire.hpp"

namespace xmit::session {
namespace {

constexpr std::uint8_t kTagFormat = 0x01;
constexpr std::uint8_t kTagRecord = 0x02;
constexpr std::uint8_t kTagHandshake = 0x03;
constexpr std::uint8_t kTagPing = 0x04;
constexpr std::uint8_t kTagPong = 0x05;
constexpr std::uint8_t kTagDurableRange = 0x06;
constexpr std::uint8_t kTagReplayRequest = 0x07;
constexpr std::uint8_t kTagCredit = 0x08;
constexpr std::uint8_t kTagShed = 0x09;

// A window or shed span past this is no plausible drain budget: it is an
// attack on the credit arithmetic.
constexpr std::uint64_t kMaxCreditWindow = 1ull << 48;
// In-flight ledger entries reserved up front: one per window record.
constexpr std::uint64_t kLedgerReserve = 4096;
// Droppable control frames (heartbeats, grants) are skipped past this
// queue depth: a fresher copy always follows.
constexpr std::size_t kControlQueueCap = 64;

// [u8 flags | u64 session id | u32 epoch | u64 last-seq-received]
constexpr std::size_t kHandshakePayloadBytes = 21;
constexpr std::uint8_t kHandshakeInitiate = 0x01;
constexpr std::size_t kSeqBytes = 8;

std::uint64_t generate_session_id() {
  // Distinct per session within the process, never zero (the multiplier
  // is odd, so k * m mod 2^64 == 0 only for k == 0).
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1) * 0x9E3779B97F4A7C15ull;
}

// Every record frame starts [tag 0x02 | u64 LE seq].
void store_record_head(std::uint8_t* out, std::uint64_t seq) {
  out[0] = kTagRecord;
  store_with_order<std::uint64_t>(out + 1, seq, ByteOrder::kLittle);
}

// [tag | u64 LE words]: every fixed-size control frame but the handshake.
struct WordFrame {
  std::uint8_t bytes[1 + 3 * kSeqBytes];
  std::size_t size = 1;
  std::span<const std::uint8_t> span() const { return {bytes, size}; }
};

WordFrame word_frame(std::uint8_t tag,
                     std::initializer_list<std::uint64_t> words) {
  WordFrame frame;
  frame.bytes[0] = tag;
  for (std::uint64_t word : words) {
    store_with_order<std::uint64_t>(frame.bytes + frame.size, word,
                                    ByteOrder::kLittle);
    frame.size += kSeqBytes;
  }
  return frame;
}

// The i-th u64 LE word of a frame payload.
std::uint64_t word_at(std::span<const std::uint8_t> payload, std::size_t i) {
  return load_with_order<std::uint64_t>(payload.data() + i * kSeqBytes,
                                        ByteOrder::kLittle);
}

std::size_t slices_bytes(std::span<const IoSlice> slices) {
  std::size_t total = 0;
  for (const IoSlice& s : slices) total += s.size;
  return total;
}

// Appends the concatenation of `slices`, minus its first `skip` bytes.
void append_slices(std::vector<std::uint8_t>& out,
                   std::span<const IoSlice> slices, std::size_t skip = 0) {
  for (const IoSlice& s : slices) {
    if (skip >= s.size) {
      skip -= s.size;
      continue;
    }
    const auto* p = static_cast<const std::uint8_t*>(s.data);
    out.insert(out.end(), p + skip, p + s.size);
    skip = 0;
  }
}

}  // namespace

MessageSession::MessageSession(net::Channel channel,
                               pbio::FormatRegistry& registry,
                               SessionOptions options)
    : MessageSession(std::move(channel), net::Endpoint(), registry,
                     options) {}

MessageSession::MessageSession(net::Endpoint endpoint,
                               pbio::FormatRegistry& registry,
                               SessionOptions options)
    : MessageSession(net::Channel(), std::move(endpoint), registry, options) {}

MessageSession::MessageSession(net::Channel channel, net::Endpoint endpoint,
                               pbio::FormatRegistry& registry,
                               SessionOptions options)
    : channel_(std::move(channel)),
      endpoint_(std::move(endpoint)),
      registry_(&registry),
      decoder_(std::make_unique<pbio::Decoder>(registry)),
      attach_slot_(std::make_unique<AttachSlot>()),
      options_(options),
      session_id_(options.session_id) {
  // An active session dials its own transports: always resumable.
  if (active()) options_.resumable = true;
  if (active() && session_id_ == 0) session_id_ = generate_session_id();
  resumable_ = options_.resumable;
  // Sessions decode against formats a remote peer described; every plan
  // compiled from that metadata is statically verified before first use.
  analysis::register_plan_verifier();
  decoder_->set_verify_plans(true);
  decoder_->set_plan_cache_budget(options_.plan_cache_budget);
  last_inbound_ms_ = clock_.elapsed_ms();
  init_durability();
  configure_transport();
}

void MessageSession::init_durability() {
  if (options_.durable_dir.empty()) return;
  durable_ = true;
  resumable_ = true;
  options_.resumable = true;
  storage::LogOptions log_options;
  log_options.segment_bytes = options_.durable_segment_bytes;
  log_options.fsync = options_.durable_fsync;
  log_options.retention_segments = options_.durable_retention_segments;
  auto log = storage::RecordLog::open(options_.durable_dir, log_options,
                                      limits_);
  if (!log.is_ok()) {
    durable_error_ = log.status();
    return;
  }
  log_ = std::make_unique<storage::RecordLog>(std::move(log).value());
  auto catalog = storage::FormatCatalog::open(
      options_.durable_dir + "/catalog.cat", limits_);
  if (!catalog.is_ok()) {
    durable_error_ = catalog.status();
    return;
  }
  catalog_ =
      std::make_unique<storage::FormatCatalog>(std::move(catalog).value());
  // Recover identity: a stored meta names the session this directory
  // belongs to. An explicit, different options_.session_id wins (the
  // caller is deliberately rebinding the directory).
  if (auto meta = storage::load_session_meta(
          options_.durable_dir + "/session.meta", limits_)) {
    if (options_.session_id == 0 || options_.session_id == meta->session_id) {
      session_id_ = meta->session_id;
      epoch_ = meta->epoch;
    }
  }
  if (session_id_ == 0 && active()) session_id_ = generate_session_id();
  // Resume send-side sequencing past what the log already holds, and
  // bring the persisted formats back so replay can re-announce them.
  if (!log_->empty()) next_seq_ = next_transmit_seq_ = log_->last_seq() + 1;
  Status loaded = catalog_->load_into(*registry_);
  if (!loaded.is_ok()) durable_error_ = loaded;
}

Status MessageSession::persist_meta() {
  if (!durable_ || session_id_ == 0) return Status::ok();
  return storage::store_session_meta(
      options_.durable_dir + "/session.meta",
      storage::SessionMeta{session_id_, epoch_});
}

Status MessageSession::append_durable(std::uint64_t seq,
                                      pbio::FormatId format_id,
                                      std::span<const IoSlice> slices) {
  if (!durable_) return Status::ok();
  if (!durable_error_.is_ok()) return durable_error_;
  Status appended = log_->append(seq, format_id, slices);
  if (!appended.is_ok()) durable_error_ = appended;
  return appended;
}

Status MessageSession::catalog_put(const pbio::Format& format) {
  if (!durable_) return Status::ok();
  if (!durable_error_.is_ok()) return durable_error_;
  if (catalog_->contains(format.id())) return Status::ok();
  auto ptr = registry_->by_id(format.id());
  if (!ptr.is_ok()) return Status::ok();  // not registry-owned: skip
  Status put = catalog_->put(ptr.value());
  if (!put.is_ok()) durable_error_ = put;
  return put;
}

Status MessageSession::send_durable_advert() {
  if (!durable_ || log_ == nullptr || log_->empty() || !channel_.is_open())
    return Status::ok();
  return emit_control(
      word_frame(kTagDurableRange, {log_->first_seq(), log_->last_seq()})
          .span(),
      /*droppable=*/false);
}

Status MessageSession::request_replay(std::uint64_t from_seq) {
  if (from_seq == 0)
    return Status(ErrorCode::kInvalidArgument,
                  "replay cannot start at sequence 0");
  XMIT_RETURN_IF_ERROR(ready_to_send());
  if (!channel_.is_open())
    return Status(ErrorCode::kIoError,
                  "no transport to request a replay on");
  // Rewind the dedup window so the historical records are delivered
  // instead of being reported as an already-seen range or a gap.
  if (last_seq_received_ >= from_seq) last_seq_received_ = from_seq - 1;
  XMIT_RETURN_IF_ERROR(emit_control(
      word_frame(kTagReplayRequest, {from_seq}).span(), /*droppable=*/false));
  return flush();
}

void MessageSession::set_limits(const DecodeLimits& limits) {
  limits_ = limits;
  decoder_->set_limits(limits);
}

Status MessageSession::note_malformed(Status status) {
  ++malformed_frames_;
  if (malformed_frames_ > limits_.max_malformed_frames) {
    poisoned_ = true;
    return Status(ErrorCode::kResourceExhausted,
                  "session poisoned: peer exceeded the malformed-frame "
                  "budget (" +
                      std::to_string(limits_.max_malformed_frames) +
                      "); last error: " + status.message());
  }
  return status;
}

Status MessageSession::connect_now() {
  if (!active())
    return Status(ErrorCode::kUnsupported,
                  "connect_now requires an endpoint-backed session");
  if (channel_.is_open()) return Status::ok();
  return reconnect(options_.liveness_deadline_ms);
}

void MessageSession::attach(net::Channel replacement) {
  std::lock_guard<std::mutex> lock(attach_slot_->mutex);
  attach_slot_->pending = std::move(replacement);
}

void MessageSession::install_pending_attach() {
  std::optional<net::Channel> pending;
  {
    std::lock_guard<std::mutex> lock(attach_slot_->mutex);
    if (attach_slot_->pending.has_value()) {
      pending.emplace(std::move(*attach_slot_->pending));
      attach_slot_->pending.reset();
    }
  }
  if (!pending.has_value()) return;
  channel_ = std::move(*pending);
  configure_transport();
  reset_wire();
  ++reconnects_;
  last_inbound_ms_ = clock_.elapsed_ms();
  transport_lost_ms_ = -1;
}

void MessageSession::note_transport_lost() {
  // Idempotent per outage: losing an already-lost transport (e.g. a pump
  // failure racing a receive failure on the same death) is one loss.
  if (!channel_.is_open() && transport_lost_ms_ >= 0) return;
  channel_.close();
  reset_wire();
  ++transport_losses_;
  transport_lost_ms_ = clock_.elapsed_ms();
}

void MessageSession::configure_transport() {
  // Bounded sends are the liveness fix: a sender wedged in a blocking
  // write toward a peer that stopped reading must observe kTimeout within
  // the liveness window instead of suppressing its own heartbeats forever.
  if (resumable_ || options_.flow_control)
    channel_.set_send_deadline(options_.liveness_deadline_ms);
}

Status MessageSession::ready_to_send() {
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  if (durable_ && !durable_error_.is_ok())
    return Status(durable_error_.code(),
                  "durable session cannot accept sends: " +
                      durable_error_.message());
  if (!resumable_) return Status::ok();
  install_pending_attach();
  if (channel_.is_open()) return Status::ok();
  if (active()) return reconnect(options_.liveness_deadline_ms);
  // Passive and disconnected: sends buffer into the replay queue and go
  // out when the peer resumes.
  return Status::ok();
}

Status MessageSession::await_transport(int budget_ms) {
  const double start = clock_.elapsed_ms();
  for (;;) {
    install_pending_attach();
    if (channel_.is_open()) return Status::ok();
    if (closed_) return Status(ErrorCode::kIoError, "session closed");
    if (active()) {
      const int used = static_cast<int>(clock_.elapsed_ms() - start);
      return reconnect(std::max(budget_ms - used, 0));
    }
    const double since_lost =
        transport_lost_ms_ < 0 ? 0 : clock_.elapsed_ms() - transport_lost_ms_;
    if (since_lost >= options_.liveness_deadline_ms)
      return Status(ErrorCode::kTimeout,
                    "peer never resumed within the liveness deadline");
    if (clock_.elapsed_ms() - start >= budget_ms)
      return Status(ErrorCode::kTimeout, "session receive timeout");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status MessageSession::reconnect(int budget_ms) {
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  if (!active())
    return Status(ErrorCode::kUnsupported,
                  "session has no endpoint to redial");
  const double start = clock_.elapsed_ms();
  for (;;) {
    const double since_lost =
        transport_lost_ms_ < 0 ? 0 : clock_.elapsed_ms() - transport_lost_ms_;
    const double liveness_left = options_.liveness_deadline_ms - since_lost;
    const double budget_left = budget_ms - (clock_.elapsed_ms() - start);
    const double window = std::min(liveness_left, budget_left);
    if (window <= 0)
      return Status(ErrorCode::kTimeout,
                    "peer unreachable: could not resume the session within "
                    "the liveness deadline");
    net::RetryPolicy policy = options_.reconnect_backoff;
    policy.deadline_ms = window;
    auto dialed = endpoint_.dial(policy);
    if (!dialed.is_ok()) {
      if (!net::is_transient(dialed.status().code()) &&
          dialed.status().code() != ErrorCode::kNotFound)
        return Status(ErrorCode::kTimeout,
                      "peer unreachable: could not resume the session "
                      "within the liveness deadline: " +
                          dialed.status().to_string());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;  // the window check above bounds this loop
    }
    channel_ = std::move(dialed).value();
    configure_transport();
    reset_wire();
    ++epoch_;
    if (epoch_ > 1) ++reconnects_;
    last_inbound_ms_ = clock_.elapsed_ms();
    // Identity-ahead-of-wire: the bumped epoch must hit the disk before
    // any peer hears it, or a crash between handshake and persist would
    // resurrect us with a stale epoch the peer rejects as rollback.
    Status persisted = persist_meta();
    if (!persisted.is_ok()) return persisted;  // disk trouble, not transport
    Status resumed = send_handshake(/*initiate=*/true);
    if (resumed.is_ok()) resumed = send_durable_advert();
    if (resumed.is_ok()) resumed = replay_unacked();
    if (resumed.is_ok()) {
      transport_lost_ms_ = -1;
      return Status::ok();
    }
    if (channel_.is_open()) {
      // The write side died instantly but the read side is still open: a
      // peer that spoke first and half-closed, its final frames still
      // buffered inbound. Hand the channel to the receive path to drain;
      // EOF there marks the loss and triggers the next redial. The loss
      // clock keeps running so this cannot defeat the liveness deadline.
      if (transport_lost_ms_ < 0) transport_lost_ms_ = clock_.elapsed_ms();
      return Status::ok();
    }
    // The fresh transport died mid-handshake or mid-replay (another
    // injected kill, a racing peer crash): dial again.
    note_transport_lost();
  }
}

Status MessageSession::send_handshake(bool initiate) {
  std::uint8_t frame[1 + kHandshakePayloadBytes];
  frame[0] = kTagHandshake;
  frame[1] = initiate ? kHandshakeInitiate : 0;
  store_with_order<std::uint64_t>(frame + 2, session_id_, ByteOrder::kLittle);
  store_with_order<std::uint32_t>(frame + 10, epoch_, ByteOrder::kLittle);
  store_with_order<std::uint64_t>(frame + 14, last_seq_received_,
                                  ByteOrder::kLittle);
  return emit_control(std::span<const std::uint8_t>(frame, sizeof(frame)),
                      /*droppable=*/false);
}

Status MessageSession::absorb_ack(std::uint64_t last_seq) {
  if (last_seq >= next_seq_)
    return Status(ErrorCode::kMalformedInput,
                  "peer acknowledges records that were never sent");
  if (last_seq > peer_acked_seq_) peer_acked_seq_ = last_seq;
  while (!replay_.empty() && replay_.front().seq <= peer_acked_seq_) {
    replay_bytes_ -= replay_.front().frame.size();
    replay_.pop_front();
  }
  const auto unacked = std::find_if(
      inflight_.begin(), inflight_.end(),
      [&](const auto& entry) { return entry.first > peer_acked_seq_; });
  for (auto it = inflight_.begin(); it != unacked; ++it)
    inflight_bytes_ -= it->second;
  inflight_.erase(inflight_.begin(), unacked);
  return Status::ok();
}

Status MessageSession::process_handshake(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != kHandshakePayloadBytes)
    return Status(ErrorCode::kMalformedInput,
                  "handshake frame must carry exactly 21 payload bytes");
  const std::uint8_t flags = payload[0];
  if ((flags & ~kHandshakeInitiate) != 0)
    return Status(ErrorCode::kMalformedInput, "unknown handshake flag bits");
  const std::uint64_t sid = word_at(payload.subspan(1), 0);
  const std::uint32_t epoch =
      load_with_order<std::uint32_t>(payload.data() + 9, ByteOrder::kLittle);
  const std::uint64_t last = word_at(payload.subspan(13), 0);
  if (sid == 0)
    return Status(ErrorCode::kMalformedInput, "handshake session id is zero");
  if (session_id_ != 0 && sid != session_id_)
    return Status(ErrorCode::kMalformedInput,
                  "handshake names a foreign session id");
  const bool initiate = (flags & kHandshakeInitiate) != 0;
  if (initiate) {
    // A resumed epoch must move forward; equal or lower is a replayed or
    // forged handshake and must not rewind delivery state.
    if (epoch <= epoch_)
      return Status(ErrorCode::kMalformedInput, "handshake epoch rollback");
  } else if (epoch != epoch_) {
    return Status(ErrorCode::kMalformedInput,
                  "handshake reply epoch does not match this session");
  }
  XMIT_RETURN_IF_ERROR(absorb_ack(last));
  const bool identity_changed = session_id_ != sid || (initiate && epoch_ != epoch);
  if (session_id_ == 0) session_id_ = sid;
  if (initiate) {
    epoch_ = epoch;
    // Adopted identity hits the disk before we answer for it.
    if (identity_changed) XMIT_RETURN_IF_ERROR(persist_meta());
    XMIT_RETURN_IF_ERROR(send_handshake(/*initiate=*/false));
    XMIT_RETURN_IF_ERROR(send_durable_advert());
    // The drop cut both directions: replay our own unacked frames too.
    XMIT_RETURN_IF_ERROR(replay_unacked());
    // A resumed sender restarts against our current windows immediately.
    maybe_grant(/*force=*/true);
  }
  return Status::ok();
}

Status MessageSession::replay_unacked() {
  // Announcements the peer's ack does not cover may never have arrived;
  // un-mark them so they go out again ahead of the frames that need them.
  // Formats the *peer* announced have no announce_seq_ entry and stay.
  for (const auto& [fid, seq] : announce_seq_)
    if (seq > peer_acked_seq_) announced_.erase(fid);
  // Rebuild the data queue: every unacked record, sent or not, goes out
  // again as credit-exempt history from the replay buffer or, past what
  // it holds, the durable log. Queued shed notices (in sequence order,
  // like the whole queue) keep their position, or the records they
  // scrubbed would read as silent loss.
  std::vector<QueuedFrame> notices;
  for (QueuedFrame& frame : send_queue_)
    if (frame.kind == FrameKind::kNotice && frame.seq > peer_acked_seq_)
      notices.push_back(std::move(frame));
  clear_data_queue();
  std::uint64_t from = peer_acked_seq_ + 1;
  for (QueuedFrame& notice : notices) {
    const std::uint64_t first =
        word_at(std::span<const std::uint8_t>(notice.frame).subspan(1), 0);
    if (first > from) queue_history(from, first - 1);
    from = std::max(from, notice.seq + 1);
    send_queue_.push_back(std::move(notice));
  }
  if (from < next_seq_) queue_history(from, next_seq_ - 1);
  return flush();
}

void MessageSession::queue_history(std::uint64_t first, std::uint64_t last) {
  send_queue_.push_back(QueuedFrame{
      .kind = FrameKind::kHistory, .seq = first, .last = last, .frame = {}});
}

void MessageSession::maybe_ping() {
  if (!receive_pumps() || !channel_.is_open()) return;
  const double now = clock_.elapsed_ms();
  if (now - last_ping_ms_ < options_.heartbeat_interval_ms) return;
  last_ping_ms_ = now;
  // Heartbeats keep flowing even while a data frame is mid-wire; a full
  // control queue drops the ping (a fresher one follows next interval).
  (void)emit_control(word_frame(kTagPing, {last_seq_received_}).span(),
                     /*droppable=*/true);
}

void MessageSession::buffer_for_replay(std::uint64_t seq,
                                       pbio::FormatId format_id,
                                       std::span<const IoSlice> slices) {
  ReplayEntry entry;
  entry.seq = seq;
  entry.format_id = format_id;
  entry.frame.reserve(slices_bytes(slices));
  append_slices(entry.frame, slices);
  replay_bytes_ += entry.frame.size();
  replay_.push_back(std::move(entry));
  // Bounded window: evicted frames are simply no longer replayable — a
  // resume past them surfaces kDataLoss at the receiver, once. With a
  // durable log the eviction is harmless (the disk covers the seq); an
  // eviction *without* that cover is silent data-at-risk, so it is
  // counted and warned about once per session.
  while (!replay_.empty() &&
         (replay_.size() > options_.replay_buffer_records ||
          replay_bytes_ > options_.replay_buffer_bytes)) {
    const ReplayEntry& victim = replay_.front();
    const bool covered = durable_ && log_ != nullptr &&
                         victim.seq >= log_->first_seq() &&
                         victim.seq <= log_->last_seq();
    if (victim.seq > peer_acked_seq_ && !covered) {
      ++evicted_records_;
      if (!eviction_logged_) {
        eviction_logged_ = true;
        std::fprintf(stderr,
                     "xmit session %" PRIu64
                     ": replay buffer evicted unacked record seq %" PRIu64
                     " with no durable log to recover it; a resume past "
                     "this point will surface kDataLoss\n",
                     session_id_, victim.seq);
      }
    }
    replay_bytes_ -= victim.frame.size();
    replay_.pop_front();
  }
}

// --- flow control ------------------------------------------------------

Status MessageSession::process_credit(std::span<const std::uint8_t> payload) {
  if (payload.size() != 3 * kSeqBytes)
    return Status(ErrorCode::kParseError, "bad credit-grant frame length");
  const std::uint64_t ack = word_at(payload, 0);
  const std::uint64_t window_records = word_at(payload, 1);
  const std::uint64_t window_bytes = word_at(payload, 2);
  // Every hostile shape is rejected before any of it touches credit
  // state: a poisonous grant must not move the windows *and* cost budget.
  if (window_records == 0 || window_bytes == 0)
    return Status(ErrorCode::kMalformedInput,
                  "zero credit window: an honest receiver pauses a sender "
                  "by withholding grants, never by granting zero");
  if (window_records > kMaxCreditWindow || window_bytes > kMaxCreditWindow)
    return Status(ErrorCode::kMalformedInput,
                  "credit window is implausibly large");
  std::uint64_t reach = 0;
  if (!checked_add(ack, window_records, &reach))
    return Status(ErrorCode::kMalformedInput, "credit reach wraps u64");
  if (reach < credit_seq_limit_)
    return Status(ErrorCode::kMalformedInput,
                  "credit rollback: grant reach regressed below an "
                  "allowance already extended");
  XMIT_RETURN_IF_ERROR(absorb_ack(ack));
  credit_seq_limit_ = reach;
  credit_bytes_window_ = window_bytes;
  // The ledger never holds more than the records window: sized here, sends
  // and acks never grow it in the steady state.
  inflight_.reserve(std::min<std::uint64_t>(window_records, kLedgerReserve));
  ++credit_grants_received_;
  return Status::ok();
}

Status MessageSession::process_shed(std::span<const std::uint8_t> payload) {
  if (payload.size() != 2 * kSeqBytes)
    return Status(ErrorCode::kParseError, "bad shed-notice frame length");
  const std::uint64_t first = word_at(payload, 0);
  const std::uint64_t last = word_at(payload, 1);
  if (first == 0)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice cannot start at sequence 0");
  if (last < first)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice range is inverted");
  if (last - first + 1 > kMaxCreditWindow)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice span is implausibly large");
  if (first <= last_seq_received_)
    return Status(ErrorCode::kMalformedInput,
                  "shed notice rewinds over already-delivered records");
  // Records missing *before* the announced range were lost silently —
  // that is still a real gap, reported once, distinct from the honest
  // shed which is accounted and not an error.
  Status gap = Status::ok();
  if (first > last_seq_received_ + 1) {
    const std::uint64_t lost = first - last_seq_received_ - 1;
    gap = Status(ErrorCode::kDataLoss,
                 std::to_string(lost) +
                     " record(s) lost in a sequence gap before a shed "
                     "notice the peer did not account for");
  }
  peer_shed_records_ += last - first + 1;
  last_seq_received_ = last;
  return gap;
}

void MessageSession::maybe_grant(bool force) {
  if (!options_.flow_control || !channel_.is_open()) return;
  // request_replay rewinds the dedup window; grants stay monotone on the
  // high-water mark so an honest replay never reads as credit rollback.
  const std::uint64_t ack = std::max(last_seq_received_, last_grant_ack_);
  const std::uint64_t drained = ack - last_grant_ack_;
  if (!force && drained * 2 < options_.receive_window_records) return;
  const WordFrame grant =
      word_frame(kTagCredit, {ack, options_.receive_window_records,
                              options_.receive_window_bytes});
  if (emit_control(grant.span(), /*droppable=*/true).is_ok()) {
    ++credit_grants_sent_;
    last_grant_ack_ = ack;
  }
}

// --- the writer ----------------------------------------------------------

Status MessageSession::write_frame(std::span<const IoSlice> frame,
                                   FrameKind kind, std::uint64_t seq,
                                   std::vector<std::uint8_t>* owned) {
  std::size_t cursor = 0;
  Status sent = channel_.send_some(frame, cursor);
  if (sent.is_ok()) return sent;
  if (sent.code() != ErrorCode::kUnavailable || cursor == 0) return sent;
  // Part of the frame is on the wire: keep only what it still owes, or all
  // of a control frame (they are small), which a dead transport re-queues.
  const std::size_t written =
      cursor > net::kFrameHeaderBytes && kind != FrameKind::kControl
          ? cursor - net::kFrameHeaderBytes
          : 0;
  midwire_.kind = kind;
  midwire_.seq = seq;
  midwire_.cursor = cursor;
  midwire_.offset = owned != nullptr ? 0 : written;
  midwire_.tail.clear();
  if (owned != nullptr)
    midwire_.tail.swap(*owned);
  else
    append_slices(midwire_.tail, frame, written);
  return Status::ok();
}

Status MessageSession::emit_control(std::span<const std::uint8_t> frame,
                                    bool droppable) {
  if (!channel_.is_open())
    return Status(ErrorCode::kIoError, "channel is closed");
  if (midwire_.cursor == 0 && control_queue_.empty()) {
    const IoSlice slice = {frame.data(), frame.size()};
    Status sent = write_frame(std::span<const IoSlice>(&slice, 1),
                              FrameKind::kControl, 0, nullptr);
    if (sent.is_ok()) return sent;
    if (sent.code() != ErrorCode::kUnavailable) {
      // The transport died under a must-deliver frame: the next one
      // carries it, ahead of any record that needs it.
      if (!droppable)
        control_queue_.push_back(
            QueuedFrame{.frame = {frame.begin(), frame.end()}});
      return sent;
    }
  }
  // Must-deliver frames (announcements, handshakes) ride past the cap —
  // they are few and bounded by the format population.
  if (droppable && control_queue_.size() >= kControlQueueCap)
    return Status(ErrorCode::kUnavailable, "control queue full; skipped");
  control_queue_.push_back(QueuedFrame{.frame = {frame.begin(), frame.end()}});
  return Status::ok();
}

Status MessageSession::emit_record(std::uint64_t seq,
                                   pbio::FormatId format_id,
                                   std::span<const IoSlice> frame) {
  // Disconnected: the resume rebuild re-sends it from the replay buffer.
  if (!channel_.is_open()) return Status::ok();
  const std::size_t bytes = slices_bytes(frame);
  if (midwire_.cursor == 0 && control_queue_.empty() && send_queue_.empty() &&
      next_transmit_seq_ == seq && credit_allows(seq, bytes)) {
    Status sent = write_frame(frame, FrameKind::kData, seq, nullptr);
    if (sent.is_ok()) note_transmitted(seq, bytes);
    if (sent.code() != ErrorCode::kUnavailable) return sent;
  }
  QueuedFrame queued{.kind = FrameKind::kData,
                     .seq = seq,
                     .format_id = format_id,
                     .frame = {}};
  queued.frame.reserve(bytes);
  append_slices(queued.frame, frame);
  ++data_queue_records_;
  data_queue_bytes_ += bytes;
  send_queue_.push_back(std::move(queued));
  // High-water marks: the bounded-memory proof.
  send_queue_depth_peak_ = std::max(send_queue_depth_peak_, data_queue_records_);
  send_queue_bytes_peak_ = std::max(send_queue_bytes_peak_, data_queue_bytes_);
  return Status::ok();
}

bool MessageSession::credit_allows(std::uint64_t seq,
                                   std::size_t payload_bytes) const {
  if (!options_.flow_control) return true;
  if (seq > credit_seq_limit_) return false;
  // One frame always rides a quiet wire, however large.
  return inflight_bytes_ == 0 ||
         inflight_bytes_ + net::kFrameHeaderBytes + payload_bytes <=
             credit_bytes_window_;
}

void MessageSession::note_transmitted(std::uint64_t seq,
                                      std::size_t payload_bytes) {
  next_transmit_seq_ = seq + 1;
  if (!options_.flow_control) return;  // unlimited credit keeps no ledger
  const std::size_t wire_bytes = net::kFrameHeaderBytes + payload_bytes;
  inflight_.emplace_back(seq, static_cast<std::uint32_t>(wire_bytes));
  inflight_bytes_ += wire_bytes;
}

Status MessageSession::pump() {
  for (;;) {
    if (!channel_.is_open())
      return Status(ErrorCode::kIoError, "channel is closed");
    // 1. A frame mid-wire owns the wire until its last byte.
    if (midwire_.cursor != 0) {
      const IoSlice rest[2] = {{midwire_.tail.data(), midwire_.offset},
                               {midwire_.tail.data(), midwire_.tail.size()}};
      Status sent = channel_.send_some(std::span<const IoSlice>(rest, 2),
                                       midwire_.cursor);
      XMIT_RETURN_IF_ERROR(sent);
      midwire_.cursor = 0;
      continue;
    }
    // 2. Credit-exempt control traffic.
    if (!control_queue_.empty()) {
      QueuedFrame& front = control_queue_.front();
      const IoSlice slice = {front.frame.data(), front.frame.size()};
      XMIT_RETURN_IF_ERROR(write_frame(std::span<const IoSlice>(&slice, 1),
                                       FrameKind::kControl, 0, &front.frame));
      control_queue_.pop_front();
      continue;
    }
    // 3. Data, in sequence position.
    QueuedFrame* front = send_queue_.empty() ? nullptr : &send_queue_.front();
    if (front != nullptr && front->kind == FrameKind::kHistory) {
      std::uint64_t seq = front->seq;
      if (!load_held(seq, front->last, held_)) {
        send_queue_.pop_front();
        continue;
      }
      front->seq = seq;
      if (reannounce(held_.format_id, seq)) continue;
      XMIT_RETURN_IF_ERROR(
          write_frame(held_.slices, FrameKind::kHistory, seq, nullptr));
      ++replayed_records_;
      if (++front->seq > front->last) send_queue_.pop_front();
      continue;
    }
    if (front != nullptr && front->kind == FrameKind::kNotice) {
      const IoSlice slice = {front->frame.data(), front->frame.size()};
      XMIT_RETURN_IF_ERROR(write_frame(std::span<const IoSlice>(&slice, 1),
                                       FrameKind::kNotice, front->seq,
                                       &front->frame));
      next_transmit_seq_ = std::max(next_transmit_seq_, front->seq + 1);
      send_queue_.pop_front();
      continue;
    }
    // A gap before the next queued record: records kSpillToLog dropped come
    // back from the replay buffer or the log as the next data frames; ones
    // held nowhere are skipped, and the receiver reports the gap.
    const std::uint64_t due = front != nullptr ? front->seq : next_seq_;
    if (next_transmit_seq_ < due) {
      std::uint64_t seq = next_transmit_seq_;
      if (!load_held(seq, due - 1, held_)) {
        next_transmit_seq_ = due;
        continue;
      }
      next_transmit_seq_ = seq;
      if (!credit_allows(seq, held_.bytes)) return Status::ok();
      if (reannounce(held_.format_id, seq)) continue;
      XMIT_RETURN_IF_ERROR(
          write_frame(held_.slices, FrameKind::kData, seq, nullptr));
      note_transmitted(seq, held_.bytes);
      continue;
    }
    if (front == nullptr) return Status::ok();  // drained
    const std::size_t bytes = front->frame.size();
    if (!credit_allows(front->seq, bytes)) return Status::ok();
    if (reannounce(front->format_id, front->seq)) continue;
    const IoSlice slice = {front->frame.data(), bytes};
    XMIT_RETURN_IF_ERROR(write_frame(std::span<const IoSlice>(&slice, 1),
                                     FrameKind::kData, front->seq,
                                     &front->frame));
    note_transmitted(front->seq, bytes);
    --data_queue_records_;
    data_queue_bytes_ -= bytes;
    send_queue_.pop_front();
  }
}

Status MessageSession::flush() {
  // The deadline bounds a stall, not the flush: it restarts whenever a byte
  // moves, so a long replay to a peer that keeps reading never times out.
  const int deadline_ms = channel_.send_deadline_ms();
  Stopwatch stalled;
  std::size_t progress = wire_progress();
  for (;;) {
    Status pumped = pump();
    if (pumped.code() != ErrorCode::kUnavailable) return pumped;
    if (wire_progress() != progress) {
      progress = wire_progress();
      stalled.reset();
    }
    int wait_ms = -1;
    if (deadline_ms >= 0) {
      wait_ms = deadline_ms - static_cast<int>(stalled.elapsed_ms());
      // A frame left mid-wire cannot be re-framed: the transport is dead.
      if (wait_ms <= 0) {
        note_transport_lost();
        return Status(ErrorCode::kTimeout,
                      "channel send deadline elapsed (peer not reading)");
      }
    }
    channel_.poll_writable(wait_ms);
  }
}

Status MessageSession::settle() {
  Status sent = options_.flow_control ? pump() : flush();
  return sent.code() == ErrorCode::kUnavailable ? Status::ok() : sent;
}

Status MessageSession::announce_frame(const pbio::Format& format,
                                      std::uint64_t seq) {
  announce_scratch_.clear();
  announce_scratch_.append_byte(kTagFormat);
  serialize_format(format, announce_scratch_);
  // Never dropped: the announcement goes out ahead of the data that needs
  // it (control frames precede queued data), whatever is mid-wire.
  Status sent = emit_control(announce_scratch_.span(), /*droppable=*/false);
  announced_.insert(format.id());
  announce_seq_[format.id()] = seq;
  if (sent.is_ok()) {
    ++announcements_sent_;
    metadata_bytes_sent_ += announce_scratch_.size();
  }
  return sent;
}

bool MessageSession::reannounce(pbio::FormatId id, std::uint64_t seq) {
  if (id == 0 || announced_.contains(id)) return false;
  auto format = registry_->by_id(id);
  if (!format.is_ok()) return false;
  (void)announce_frame(*format.value(), seq);  // a dead transport is noted
  return true;
}

bool MessageSession::load_held(std::uint64_t& seq, std::uint64_t last,
                               HeldFrame& out) {
  constexpr std::uint64_t kNone = ~0ull;
  const auto entry = std::lower_bound(
      replay_.begin(), replay_.end(), seq,
      [](const ReplayEntry& e, std::uint64_t s) { return e.seq < s; });
  const std::uint64_t in_memory = entry == replay_.end() ? kNone : entry->seq;
  const std::uint64_t on_disk =
      durable_ && log_ != nullptr && !log_->empty() && seq <= log_->last_seq()
          ? std::max(seq, log_->first_seq())
          : kNone;
  seq = std::min(in_memory, on_disk);
  if (seq > last) return false;
  if (seq == in_memory) {  // the buffer first: a hit costs no disk read
    out.slices[0] = {entry->frame.data(), 0};
    out.slices[1] = {entry->frame.data(), entry->frame.size()};
    out.format_id = entry->format_id;
  } else {
    if (!read_log(seq)) return false;
    store_record_head(out.head.data(), seq);
    out.slices[0] = {out.head.data(), out.head.size()};
    out.slices[1] = {log_item_.payload.data(), log_item_.payload.size()};
    out.format_id = log_item_.format_id;
  }
  out.bytes = out.slices[0].size + out.slices[1].size;
  return true;
}

bool MessageSession::read_log(std::uint64_t seq) {
  // One cursor serves a whole sequential re-send; only a jump back or past
  // its end opens another.
  if (!log_cursor_ || log_item_.seq > seq || seq > log_cursor_->stop_seq()) {
    log_cursor_.emplace(log_->read_from(seq));
    log_item_ = {};
  }
  while (log_item_.seq < seq) {
    auto more = log_cursor_->next(&log_item_);
    if (!more.is_ok()) durable_error_ = more.status();
    if (!more.is_ok() || !more.value()) {
      log_cursor_.reset();
      log_item_ = {};
      return false;
    }
  }
  return log_item_.seq == seq;
}

void MessageSession::clear_data_queue() {
  // Every record owed to the wire is written, history, or given up; the
  // in-flight ledger restarts clean.
  send_queue_.clear();
  data_queue_records_ = 0;
  data_queue_bytes_ = 0;
  next_transmit_seq_ = next_seq_;
  inflight_.clear();
  inflight_bytes_ = 0;
}

void MessageSession::drop_outbound() {
  midwire_.cursor = 0;
  control_queue_.clear();
  clear_data_queue();
}

void MessageSession::reset_wire() {
  if (midwire_.cursor != 0) {
    if (midwire_.kind == FrameKind::kData &&
        next_transmit_seq_ == midwire_.seq + 1) {
      next_transmit_seq_ = midwire_.seq;
      if (!inflight_.empty() && inflight_.back().first == midwire_.seq) {
        inflight_bytes_ -= inflight_.back().second;
        inflight_.pop_back();
      }
    } else if (midwire_.kind == FrameKind::kNotice) {
      send_queue_.push_front(QueuedFrame{.kind = FrameKind::kNotice,
                                         .seq = midwire_.seq,
                                         .frame = std::move(midwire_.tail)});
    } else if (midwire_.kind == FrameKind::kControl) {
      // An announcement cut short must precede its data on the next wire.
      control_queue_.push_front(
          QueuedFrame{.frame = std::move(midwire_.tail)});
    }
    midwire_.cursor = 0;
  }
  std::erase_if(control_queue_, [](const QueuedFrame& frame) {
    return frame.frame[0] == kTagHandshake ||
           frame.frame[0] == kTagDurableRange ||
           frame.frame[0] == kTagReplayRequest;
  });
}

// --- the reader ----------------------------------------------------------

Status MessageSession::read_frame(std::vector<std::uint8_t>& out,
                                  int timeout_ms) {
  Stopwatch budget;
  for (;;) {
    Status got = channel_.try_receive(out, limits_.max_message_bytes);
    if (got.code() != ErrorCode::kUnavailable) return got;
    // Idle inbound: keep our own writer moving while we wait.
    if (receive_pumps()) (void)pump();
    if (!channel_.is_open())
      return Status(ErrorCode::kIoError, "channel is closed");
    const int remaining = timeout_ms - static_cast<int>(budget.elapsed_ms());
    if (remaining <= 0) return got;
    channel_.poll_readable(receive_pumps() ? std::min(remaining, 20)
                                           : remaining);
  }
}

bool MessageSession::absorb_control(std::span<const std::uint8_t> frame,
                                    Status& status) {
  if (frame.empty()) {
    status = Status(ErrorCode::kParseError, "empty session frame");
    return true;
  }
  const std::span<const std::uint8_t> payload = frame.subspan(1);
  switch (frame[0]) {
    case kTagPing:
    case kTagPong:
      if (payload.size() != kSeqBytes) {
        status = Status(ErrorCode::kParseError, "bad ping/pong frame length");
        return true;
      }
      status = absorb_ack(word_at(payload, 0));
      if (status.is_ok() && frame[0] == kTagPing && channel_.is_open()) {
        (void)emit_control(word_frame(kTagPong, {last_seq_received_}).span(),
                           /*droppable=*/true);
        maybe_grant(/*force=*/true);  // a ping doubles as a credit probe
      }
      return true;
    case kTagCredit:
      status = process_credit(payload);
      // Fresh credit may unblock queued data now.
      if (status.is_ok() && options_.flow_control) (void)pump();
      return true;
    default:
      return false;
  }
}

void MessageSession::poll_control() {
  if (!options_.flow_control) return;
  // Parked frames are bounded: past this the caller must receive() before
  // we pull more off the wire, or a flooding peer grows us without limit.
  constexpr std::size_t kPendingFramesCap = 256;
  while (channel_.is_open() && pending_frames_.size() < kPendingFramesCap) {
    Status got = read_frame(poll_frame_, 0);
    if (got.code() == ErrorCode::kUnavailable) return;  // nothing waiting
    if (!got.is_ok()) {
      if (got.code() == ErrorCode::kResourceExhausted)
        (void)note_malformed(got);  // oversized inbound frame
      else if (resumable_)
        note_transport_lost();
      else
        channel_.close();
      return;
    }
    last_inbound_ms_ = clock_.elapsed_ms();
    Status absorbed;
    if (absorb_control(poll_frame_, absorbed)) {
      if (!absorbed.is_ok()) (void)note_malformed(absorbed);
      continue;
    }
    // Data, announcements, handshakes, shed notices: the receive path owns
    // their semantics; park them in arrival order.
    pending_frames_.push_back(poll_frame_);
  }
}

bool MessageSession::queue_over_watermark(std::size_t incoming_bytes) const {
  const double watermark =
      std::clamp(options_.send_queue_watermark, 0.01, 1.0);
  const auto record_limit = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_records) * watermark);
  const auto byte_limit = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_bytes) * watermark);
  return data_queue_records_ + 1 > std::max<std::size_t>(record_limit, 1) ||
         data_queue_bytes_ + incoming_bytes >
             std::max<std::size_t>(byte_limit, 1);
}

Status MessageSession::admit_record(std::size_t frame_bytes) {
  if (!options_.flow_control) return Status::ok();
  poll_control();
  (void)pump();
  if (!queue_over_watermark(frame_bytes)) return Status::ok();
  switch (options_.slow_consumer) {
    case SlowConsumerPolicy::kBlockWithDeadline: {
      Stopwatch wait;
      const auto waited = [&](Status verdict) {
        send_block_ms_ += wait.elapsed_ms();
        return verdict;
      };
      for (;;) {
        poll_control();
        (void)pump();
        if (!queue_over_watermark(frame_bytes)) return waited(Status::ok());
        if (closed_) return Status(ErrorCode::kIoError, "session closed");
        if (resumable_) {
          install_pending_attach();
          if (!channel_.is_open() && active()) {
            Status ready = ready_to_send();
            if (!ready.is_ok()) return waited(ready);
          }
        }
        maybe_ping();
        // Dead, not slow: nothing inbound for a whole liveness window
        // while we were starved for credit.
        if (liveness_stale())
          return waited(Status(ErrorCode::kTimeout,
                               "peer silent past the liveness deadline"));
        if (wait.elapsed_ms() >= options_.send_block_deadline_ms)
          return waited(
              Status(ErrorCode::kResourceExhausted,
                     "send queue full: peer credit could not drain it "
                     "within the block deadline (slow consumer)"));
        if (channel_.is_open())
          channel_.poll_readable(1);
        else
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    case SlowConsumerPolicy::kSpillToLog: {
      if (!durable_ || !durable_error_.is_ok())
        return Status(ErrorCode::kResourceExhausted,
                      "send queue full and kSpillToLog has no healthy "
                      "durable log to fall back on");
      spill_queue();
      return Status::ok();
    }
    case SlowConsumerPolicy::kShedOldest:
      return shed_queue();
    case SlowConsumerPolicy::kDisconnect: {
      note_transport_lost();
      drop_outbound();
      return Status(ErrorCode::kResourceExhausted,
                    "send queue hit its watermark; policy kDisconnect "
                    "dropped the transport");
    }
  }
  return Status::ok();
}

void MessageSession::spill_queue() {
  // Every queued data frame is covered by the write-ahead log, so memory
  // can let go of all of them: the ring is a cache, the log is the truth.
  // The writer re-sends the gap as the next data frames as credit returns.
  std::erase_if(send_queue_, [this](const QueuedFrame& frame) {
    if (frame.kind != FrameKind::kData) return false;
    ++records_spilled_;
    --data_queue_records_;
    data_queue_bytes_ -= frame.frame.size();
    return true;
  });
}

Status MessageSession::shed_queue() {
  // Oldest-first: freshest data wins (the telemetry shape). Drop down to
  // half the watermark so the policy does not re-fire on every send, and
  // name every dropped range to the peer in an in-position 0x09 notice.
  const double watermark =
      std::clamp(options_.send_queue_watermark, 0.01, 1.0);
  const auto record_target = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_records) * watermark / 2);
  const auto byte_target = static_cast<std::size_t>(
      static_cast<double>(options_.send_queue_bytes) * watermark / 2);
  const auto over_target = [&] {
    return data_queue_records_ > record_target ||
           data_queue_bytes_ > byte_target;
  };
  std::size_t i = 0;
  while (over_target() && i < send_queue_.size()) {
    if (send_queue_[i].kind != FrameKind::kData) {
      ++i;
      continue;
    }
    const std::uint64_t first = send_queue_[i].seq;
    std::uint64_t last = first;
    while (over_target() && i < send_queue_.size()) {
      QueuedFrame& victim = send_queue_[i];
      if (victim.kind != FrameKind::kData) break;
      if (victim.seq != last && victim.seq != last + 1) break;
      last = victim.seq;
      ++records_shed_;
      --data_queue_records_;
      data_queue_bytes_ -= victim.frame.size();
      send_queue_.erase(send_queue_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Shed records must not resurrect on a resume: scrub them from the
    // replay buffer (the notice, replayed in position, owns their story).
    for (auto it = replay_.begin(); it != replay_.end();) {
      if (it->seq >= first && it->seq <= last) {
        replay_bytes_ -= it->frame.size();
        it = replay_.erase(it);
      } else {
        ++it;
      }
    }
    append_shed_sidecar(first, last);
    i = splice_shed_notice(i, first, last);
  }
  return Status::ok();
}

std::size_t MessageSession::splice_shed_notice(std::size_t index,
                                               std::uint64_t first,
                                               std::uint64_t last) {
  const WordFrame frame = word_frame(kTagShed, {first, last});
  // Sending it advances next_transmit_seq_ past `last`.
  send_queue_.insert(
      send_queue_.begin() + static_cast<std::ptrdiff_t>(index),
      QueuedFrame{.kind = FrameKind::kNotice,
                  .seq = last,
                  .frame = {frame.bytes, frame.bytes + frame.size}});
  return index + 1;
}

void MessageSession::append_shed_sidecar(std::uint64_t first,
                                         std::uint64_t last) {
  if (!durable_) return;
  std::FILE* sidecar =
      std::fopen((options_.durable_dir + "/shed.log").c_str(), "ae");
  if (sidecar == nullptr) return;
  std::fprintf(sidecar, "%" PRIu64 " %" PRIu64 "\n", first, last);
  std::fclose(sidecar);
}

Status MessageSession::send_record(pbio::FormatId format_id,
                                   std::span<const IoSlice> payload) {
  if (!resumable_ && !channel_.is_open())
    return Status(ErrorCode::kIoError, "channel is closed");
  // Admission precedes sequencing and the WAL: a rejected send consumes
  // no sequence number and leaves no log hole to misread as loss.
  XMIT_RETURN_IF_ERROR(admit_record(record_head_.size() + slices_bytes(payload)));
  const std::uint64_t seq = next_seq_++;
  store_record_head(record_head_.data(), seq);
  frame_slices_.clear();
  frame_slices_.push_back({record_head_.data(), record_head_.size()});
  frame_slices_.insert(frame_slices_.end(), payload.begin(), payload.end());
  if (resumable_) buffer_for_replay(seq, format_id, frame_slices_);
  // Write-ahead: the record must be durable before it is transmitted —
  // a send the log refused never reaches the wire.
  XMIT_RETURN_IF_ERROR(append_durable(seq, format_id, payload));
  Status sent = emit_record(seq, format_id, frame_slices_);
  if (sent.is_ok()) sent = settle();
  if (sent.is_ok()) {
    ++records_sent_;
    return sent;
  }
  if (!resumable_) {
    // The write side is dead for good; the read side may still drain.
    drop_outbound();
    return sent;
  }
  note_transport_lost();
  ++records_sent_;  // already in the replay buffer
  // Liveness blind spot, closed: a send that blew the channel's bounded
  // send deadline means the peer stopped reading for a whole liveness
  // window. If nothing arrived inbound either, the peer is dead, not
  // slow — surface the same verdict a silent receive would have.
  if (sent.code() == ErrorCode::kTimeout && liveness_stale())
    return Status(ErrorCode::kTimeout,
                  "peer silent past the liveness deadline (send blocked "
                  "past it with nothing inbound)");
  if (active() && !channel_.is_open())
    return reconnect(options_.liveness_deadline_ms);
  return Status::ok();
}

Status MessageSession::announce(const pbio::Format& format) {
  for (;;) {
    if (announced_.contains(format.id())) return Status::ok();
    XMIT_RETURN_IF_ERROR(ready_to_send());
    // Schema-ahead-of-data: the catalog entry is fsynced before any
    // record encoded with the format can reach the log or the wire, so
    // a restart can always re-announce what it replays.
    XMIT_RETURN_IF_ERROR(catalog_put(format));
    if (!channel_.is_open()) {
      // Passive and disconnected: the resume path re-announces anything
      // past the peer's ack, so just record intent.
      announced_.insert(format.id());
      announce_seq_[format.id()] = next_seq_;
      return Status::ok();
    }
    Status sent = announce_frame(format, next_seq_);
    if (sent.is_ok()) sent = settle();
    if (sent.is_ok()) return sent;
    if (!resumable_) return sent;
    note_transport_lost();
    // Passive: the resume path re-announces. Active: loop — ready_to_send
    // reconnects, and the resume un-marks the announcement so it goes out
    // again on the fresh transport.
    if (!active()) return Status::ok();
  }
}

Status MessageSession::send(const pbio::Encoder& encoder, const void* record) {
  XMIT_RETURN_IF_ERROR(ready_to_send());
  XMIT_RETURN_IF_ERROR(announce(encoder.format()));
  // Gather path: the encoder's slices over pooled scratch go to the wire
  // behind the [tag | seq] head in one sendmsg, with no flattened copy.
  XMIT_RETURN_IF_ERROR(
      encoder.encode_iov(record, send_scratch_, send_slices_));
  return send_record(encoder.format().id(), send_slices_);
}

Status MessageSession::send_encoded(const pbio::Format& format,
                                    std::span<const std::uint8_t> record) {
  XMIT_RETURN_IF_ERROR(ready_to_send());
  XMIT_RETURN_IF_ERROR(announce(format));
  const IoSlice slice = {record.data(), record.size()};
  return send_record(format.id(), std::span<const IoSlice>(&slice, 1));
}

Result<MessageSession::Incoming> MessageSession::receive(int timeout_ms) {
  XMIT_ASSIGN_OR_RETURN(auto view, receive_view(timeout_ms));
  Incoming incoming;
  incoming.bytes.assign(view.bytes.begin(), view.bytes.end());
  incoming.sender_format = std::move(view.sender_format);
  return incoming;
}

Result<MessageSession::IncomingView> MessageSession::receive_view(
    int timeout_ms) {
  if (poisoned_)
    return Status(ErrorCode::kResourceExhausted,
                  "session poisoned: peer exceeded the malformed-frame budget");
  if (closed_) return Status(ErrorCode::kIoError, "session closed");
  Stopwatch budget;
  for (;;) {
    if (resumable_) install_pending_attach();
    // Frames poll_control() parked while a send path drained the wire are
    // consumed first, in arrival order.
    if (!pending_frames_.empty()) {
      recv_frame_ = std::move(pending_frames_.front());
      pending_frames_.pop_front();
    } else if (!channel_.is_open()) {
      if (!resumable_)
        return Status(ErrorCode::kIoError, "channel is closed");
      const int remaining =
          timeout_ms - static_cast<int>(budget.elapsed_ms());
      XMIT_RETURN_IF_ERROR(await_transport(std::max(remaining, 0)));
      continue;
    } else {
      // A fresh flow-controlled receiver seeds the peer's credit before
      // anything else can arrive — without this first grant a sender with
      // no handshake in its life would starve forever.
      if (credit_grants_sent_ == 0) maybe_grant(/*force=*/true);
      if (receive_pumps()) (void)pump();
      int slice = std::max(
          timeout_ms - static_cast<int>(budget.elapsed_ms()), 0);
      if (receive_pumps()) {
        // Wake often enough to heartbeat and to notice a blown liveness
        // deadline even when the caller's budget is generous.
        slice = std::min(slice, options_.heartbeat_interval_ms);
        const double live_left =
            options_.liveness_deadline_ms -
            (clock_.elapsed_ms() - last_inbound_ms_);
        slice = std::min(slice, std::max(static_cast<int>(live_left), 0));
      }
      Status got = read_frame(recv_frame_, slice);
      if (!got.is_ok()) {
        if (got.code() == ErrorCode::kUnavailable) {
          if (receive_pumps() && liveness_stale())
            return Status(ErrorCode::kTimeout,
                          "peer silent past the liveness deadline");
          if (budget.elapsed_ms() >= timeout_ms)
            return Status(ErrorCode::kTimeout, "session receive timeout");
          maybe_ping();
          continue;
        }
        if (resumable_ && (got.code() == ErrorCode::kNotFound ||
                           got.code() == ErrorCode::kIoError)) {
          // Clean close and death mid-frame are both just a transport loss
          // for a resumable session: reconnect/await and keep receiving.
          note_transport_lost();
          continue;
        }
        if (got.code() == ErrorCode::kResourceExhausted)
          return note_malformed(got);  // oversized inbound frame
        return got;
      }
      last_inbound_ms_ = clock_.elapsed_ms();
    }
    Status absorbed;
    if (absorb_control(recv_frame_, absorbed)) {
      if (!absorbed.is_ok()) return note_malformed(absorbed);
      continue;
    }
    std::span<const std::uint8_t> payload(recv_frame_.data() + 1,
                                          recv_frame_.size() - 1);
    switch (recv_frame_[0]) {
      case kTagFormat: {
        auto format = pbio::deserialize_format(payload, limits_);
        if (!format.is_ok()) {
          // A truncated in-band announcement (peer died mid-write) must
          // not poison the session — report and keep the stream usable.
          return note_malformed(format.status());
        }
        XMIT_ASSIGN_OR_RETURN(auto adopted,
                              registry_->adopt(std::move(format).value()));
        // What the peer announced, we need not re-announce to them.
        announced_.insert(adopted->id());
        // A fresh, well-formed announcement vouches for the format again.
        quarantined_.erase(adopted->id());
        ++announcements_received_;
        continue;
      }
      case kTagRecord: {
        if (payload.size() < kSeqBytes)
          return note_malformed(
              Status(ErrorCode::kParseError,
                     "record frame too short for its sequence number"));
        const std::uint64_t seq = word_at(payload, 0);
        const std::span<const std::uint8_t> record =
            payload.subspan(kSeqBytes);
        if (seq <= last_seq_received_) {
          // An at-least-once replay we already delivered: drop silently.
          ++duplicates_discarded_;
          continue;
        }
        if (seq > last_seq_received_ + 1) {
          const std::uint64_t lost = seq - last_seq_received_ - 1;
          last_seq_received_ = seq;  // adopt: report each gap exactly once
          return Status(ErrorCode::kDataLoss,
                        std::to_string(lost) +
                            " record(s) lost in a sequence gap the peer's "
                            "replay buffer could not cover");
        }
        last_seq_received_ = seq;
        // Quarantine check runs on the raw header, before the (costlier)
        // structural inspection a hostile record would fail anyway.
        auto header = pbio::parse_header(record);
        if (header.is_ok() &&
            quarantined_.contains(header.value().format_id)) {
          return note_malformed(Status(
              ErrorCode::kMalformedInput,
              "record claims quarantined format id; re-announce to clear"));
        }
        auto info = decoder_->inspect(record);
        if (!info.is_ok()) {
          // Affirmatively hostile bytes (internal contradictions, blown
          // budgets) poison trust in that format id until the peer
          // re-announces it. Mere truncation — a peer dying mid-write, a
          // lossy channel — does not: the next intact record must decode.
          if (header.is_ok() &&
              (info.code() == ErrorCode::kMalformedInput ||
               info.code() == ErrorCode::kResourceExhausted)) {
            quarantined_.insert(header.value().format_id);
            drop_plan_pins_for(header.value().format_id);
          }
          return note_malformed(info.status());
        }
        ++records_received_;
        maybe_grant(/*force=*/false);  // drained half a window? re-arm it
        return IncomingView{record, std::move(info.value().sender_format)};
      }
      case kTagHandshake: {
        Status st = process_handshake(payload);
        if (st.is_ok()) continue;
        if (st.code() == ErrorCode::kIoError ||
            st.code() == ErrorCode::kNotFound) {
          // Our *reply or replay* write failed: transport trouble, not
          // peer hostility. A still-open channel means the peer
          // half-closed with frames in flight — keep draining it.
          if (!resumable_ && !channel_.is_open()) return st;
          continue;
        }
        return note_malformed(st);
      }
      case kTagDurableRange: {
        if (payload.size() != 2 * kSeqBytes)
          return note_malformed(Status(ErrorCode::kParseError,
                                       "bad durable-range frame length"));
        const std::uint64_t first = word_at(payload, 0);
        const std::uint64_t last = word_at(payload, 1);
        if (first == 0 || last < first)
          return note_malformed(Status(
              ErrorCode::kMalformedInput,
              "durable-range advert [" + std::to_string(first) + ", " +
                  std::to_string(last) + "] is not a valid range"));
        peer_durable_first_ = first;
        peer_durable_last_ = last;
        continue;
      }
      case kTagReplayRequest: {
        if (payload.size() != kSeqBytes)
          return note_malformed(Status(ErrorCode::kParseError,
                                       "bad replay-request frame length"));
        const std::uint64_t from = word_at(payload, 0);
        if (from == 0)
          return note_malformed(Status(ErrorCode::kMalformedInput,
                                       "replay request from sequence 0"));
        // Only a durable sender can honor history; anyone else ignores
        // the request (the requester learns nothing arrived and moves
        // on) rather than guessing at records it no longer has.
        if (!durable_ || log_ == nullptr || log_->empty()) continue;
        // The requester may be a brand-new subscriber: forget what *we*
        // announced so every schema goes out again ahead of its data (a
        // re-announcement is an idempotent no-op for a peer that knows it).
        for (const auto& [fid, seq] : announce_seq_) announced_.erase(fid);
        // The history goes out ahead of anything queued, credit-exempt.
        queue_history(std::max(from, log_->first_seq()), log_->last_seq());
        std::rotate(send_queue_.begin(), send_queue_.end() - 1,
                    send_queue_.end());
        Status streamed = flush();
        if (streamed.is_ok() ||
            (resumable_ && (streamed.code() == ErrorCode::kIoError ||
                            streamed.code() == ErrorCode::kNotFound)))
          continue;
        return streamed;
      }
      case kTagShed: {
        Status st = process_shed(payload);
        if (st.is_ok()) {
          // The dedup window jumped; the drained count may owe a grant.
          maybe_grant(/*force=*/false);
          continue;
        }
        if (st.code() == ErrorCode::kDataLoss) return st;
        return note_malformed(st);
      }
      default:
        return note_malformed(
            Status(ErrorCode::kParseError, "unknown session frame tag " +
                                               std::to_string(recv_frame_[0])));
    }
  }
}

void MessageSession::pin_batch_plan(const pbio::FormatPtr& sender,
                                    const pbio::Format& receiver) {
  if (!sender) return;
  auto key = std::make_pair(sender->id(), receiver.id());
  if (plan_pins_.contains(key)) return;
  auto pin = decoder_->pin_plan(sender, receiver);
  if (pin.is_ok())
    plan_pins_.emplace(key, std::move(pin).value());
  else
    ++plan_pin_failures_;  // degraded, not broken: the plan rebuilds
}

void MessageSession::drop_plan_pins_for(pbio::FormatId sender_id) {
  for (auto it = plan_pins_.begin(); it != plan_pins_.end();) {
    if (it->first.first == sender_id)
      it = plan_pins_.erase(it);
    else
      ++it;
  }
}

Result<std::size_t> MessageSession::receive_batch(const pbio::Format& receiver,
                                                  void* out, std::size_t stride,
                                                  std::size_t max_records,
                                                  int timeout_ms) {
  if (max_records == 0)
    return Status(ErrorCode::kInvalidArgument, "receive_batch of 0 records");
  if (!batch_decoder_)
    batch_decoder_ = std::make_unique<pbio::BatchDecoder>(
        *decoder_, std::max<std::size_t>(options_.batch_decode_workers, 1));
  if (batch_records_.size() < max_records) batch_records_.resize(max_records);
  batch_spans_.clear();

  // The first record is worth the caller's whole budget; everything after
  // it is pure drain — take only what the transport already holds.
  while (batch_spans_.size() < max_records) {
    auto more = receive_view(batch_spans_.empty() ? timeout_ms : 0);
    if (!more.is_ok()) {
      const ErrorCode code = more.status().code();
      // Drain exhausted (or the peer went away mid-drain): decode what we
      // have; a close/liveness condition resurfaces on the next call.
      if (!batch_spans_.empty() &&
          (code == ErrorCode::kTimeout || code == ErrorCode::kNotFound ||
           code == ErrorCode::kIoError))
        break;
      return more.status();
    }
    pin_batch_plan(more.value().sender_format, receiver);
    std::vector<std::uint8_t>& slot = batch_records_[batch_spans_.size()];
    slot.assign(more.value().bytes.begin(), more.value().bytes.end());
    batch_spans_.emplace_back(slot.data(), slot.size());
  }

  XMIT_RETURN_IF_ERROR(batch_decoder_->decode_batch(
      std::span<const std::span<const std::uint8_t>>(batch_spans_.data(),
                                                     batch_spans_.size()),
      receiver, out, stride));
  return batch_spans_.size();
}

Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b) {
  return make_session_pipe(registry_a, registry_b, SessionOptions{});
}

Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b,
                                      SessionOptions options) {
  XMIT_ASSIGN_OR_RETURN(auto pipe, net::Channel::pipe());
  return SessionPair{
      MessageSession(std::move(pipe.first), registry_a, options),
      MessageSession(std::move(pipe.second), registry_b, options)};
}

Result<TcpSessionPair> make_session_tcp(pbio::FormatRegistry& registry_a,
                                        pbio::FormatRegistry& registry_b,
                                        SessionOptions options) {
  options.resumable = true;
  XMIT_ASSIGN_OR_RETURN(auto listener, net::ChannelListener::listen(0));
  MessageSession a(net::Endpoint::tcp("127.0.0.1", listener.port()),
                   registry_a, options);
  XMIT_RETURN_IF_ERROR(a.connect_now());
  XMIT_ASSIGN_OR_RETURN(auto accepted, listener.accept(5000));
  MessageSession b(std::move(accepted), registry_b, options);
  return TcpSessionPair{std::move(listener), std::move(a), std::move(b)};
}

}  // namespace xmit::session

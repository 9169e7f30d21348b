// MessageSession: a PBIO connection with in-band metadata.
//
// The paper's cost model (§4.2): "Small 'startup' overheads are incurred
// only during 'connection establishment', that is, each time an
// XMIT-based exchange is initiated and/or the structure of the data
// exchanged is modified", after which "PBIO-based communications can
// continue as if normal PBIO metadata were being used".
//
// MessageSession implements exactly that discipline over a Channel: the
// first time a format is sent on a session, its serialized metadata
// travels in-band ahead of the record (and again if an *evolved* format
// with the same name but a new id appears — the "structure modified"
// case). The receiver adopts announced formats into its registry
// transparently, so the peer needs no schema document, no HTTP fetch and
// no compiled-in tables — the connection is self-describing, like a PBIO
// data file but live.
//
// Resumable sessions extend the same cost discipline to *recovery*: when
// the transport dies, a session holding a net::Endpoint re-dials (with
// retry/backoff), proves continuity with a handshake frame, and replays
// only the frames the receiver never acknowledged — including the format
// announcements the receiver lost, and nothing more. Delivery is
// at-least-once on the wire; receiver-side sequence dedup makes it
// effectively exactly-once for the caller. Quarantine, poison and limits
// state all survive a reconnect: a hostile peer cannot launder its
// reputation by dropping the connection.
//
// Durable sessions (SessionOptions::durable_dir) extend resumability
// past process death: every outgoing record is appended to an fsynced
// write-ahead RecordLog *before* transmission, every announced format is
// persisted to a FormatCatalog, and the (session id, epoch) identity
// lives in an atomically-replaced meta file. A restarted sender reopens
// the directory, recovers its identity, formats and full send history,
// and resumes the same session — the receiver sees a normal epoch bump
// followed by an at-least-once replay its dedup already handles.
//
// One writer, one reader. Every outgoing frame (records,
// announcements, handshakes, heartbeats, grants, adverts, replay requests
// and replays) goes through one routine: it finishes the single frame
// allowed to be partially on the wire, then writes the new frame straight
// from the caller's gather slices without blocking; only what cannot go
// at once is queued. Control frames may pass queued data; records go out
// in sequence order as the peer's credit allows. A session that does not
// honour grants (no flow_control) simply has unlimited credit, and its
// send() flushes, returning with the record on the wire. Every inbound
// frame comes from the channel's buffered frame assembler, so a receive
// that times out mid-frame keeps the bytes it already read. The session
// deals in frames; only net::Channel knows how they are delimited.
//
// Frame format: [1-byte tag | payload], each frame carried behind the
// channel's u32 little-endian length prefix; integers little-endian.
//   tag 0x01  format announcement (pbio/format_wire serialization)
//   tag 0x02  data record: [u64 LE sequence number | PBIO wire record]
//   tag 0x03  handshake: [u8 flags | u64 session id | u32 epoch |
//             u64 last-seq-received]; flags bit0 = initiate (a reply is
//             requested); all other flag bits must be zero
//   tag 0x04  ping: [u64 last-seq-received]   (liveness probe + ack)
//   tag 0x05  pong: [u64 last-seq-received]   (probe answer + ack)
//   tag 0x06  durable range advert: [u64 first-seq | u64 last-seq] — a
//             durable sender, after each handshake, names the inclusive
//             range its on-disk log can replay on request
//   tag 0x07  replay request: [u64 from-seq] — ask a durable peer to
//             re-send history from `from-seq` (clamped to its log) as
//             ordinary tag-0x02 frames with their original sequence
//             numbers; a non-durable peer ignores the request
//   tag 0x08  credit grant: [u64 last-seq-received | u64 window-records |
//             u64 window-bytes] — a flow-controlled receiver's drain
//             budget. The ack piggybacks replay trimming; the windows
//             extend the sender's transmit allowance to
//             ack + window-records (cumulative, monotone) and cap unacked
//             in-flight payload bytes. Zero windows, absurd windows
//             (> 2^48), wrapping reach and reach rollback are hostile and
//             draw down the malformed-frame budget — an honest receiver
//             pauses a sender by *withholding* grants, never by granting
//             zero.
//   tag 0x09  shed notice: [u64 first-seq | u64 last-seq] — an overloaded
//             sender running SlowConsumerPolicy::kShedOldest names the
//             inclusive seq range it dropped, in-stream and in order, so
//             the receiver's dedup window advances without a phantom
//             kDataLoss gap and shed accounting stays exact on both ends.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/limits.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/retry.hpp"
#include "pbio/batch.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "storage/catalog.hpp"
#include "storage/log.hpp"

namespace xmit::session {

// What an overloaded sender does when its bounded send queue reaches the
// soft watermark and the peer's credit cannot drain it.
enum class SlowConsumerPolicy : std::uint8_t {
  // Wait (pumping the queue and processing inbound credit) up to
  // send_block_deadline_ms, then fail the send with kResourceExhausted.
  // A peer silent past the liveness deadline fails with kTimeout instead:
  // slow-but-alive and dead are distinct verdicts.
  kBlockWithDeadline = 0,
  // Durable sessions only: drop queued records from memory — the
  // write-ahead log already holds them ("the ring is a cache, the log is
  // the truth") — and stream them back from disk when credit returns.
  // Sender memory stays bounded; no acked or logged record is ever lost.
  kSpillToLog,
  // Drop the oldest untransmitted queued records and tell the receiver
  // exactly which seq range died via a tag-0x09 shed notice, so gap
  // reporting stays truthful. Freshest data wins (telemetry shape).
  kShedOldest,
  // Drop the transport. The resumption machinery (replay buffer, durable
  // log) owns recovery if the peer ever comes back.
  kDisconnect,
};

// Knobs for the resumption layer. The defaults suit tests and LAN use;
// production deployments tune the replay-buffer bound to their record
// rate times the longest outage they intend to ride out.
struct SessionOptions {
  bool resumable = false;       // keep a replay buffer; survive reconnects
  std::uint64_t session_id = 0; // 0 = generated (active) / adopted (passive)
  std::size_t replay_buffer_records = 256;          // unacked frames kept
  std::size_t replay_buffer_bytes = 4u << 20;       // and their byte bound
  int heartbeat_interval_ms = 500;   // ping cadence while receive is idle
  int liveness_deadline_ms = 5000;   // silent/unreachable peer => kTimeout
  net::RetryPolicy reconnect_backoff;  // dial policy for each reconnect

  // Durability: a non-empty directory turns the session durable (which
  // implies resumable). Outgoing records are write-ahead logged there —
  // appended and fsynced per `durable_fsync` *before* transmission — and
  // announced formats plus the session identity persist beside them, so
  // a restarted process resumes the same session from disk.
  std::string durable_dir;
  storage::FsyncPolicy durable_fsync = storage::FsyncPolicy::kAlways;
  std::uint64_t durable_segment_bytes = 8u << 20;
  std::size_t durable_retention_segments = 0;  // 0 = keep everything
  // Flow control: send and honour tag-0x08 credit grants. A send queues
  // what credit does not yet cover (a bounded per-session queue drained
  // with nonblocking writes) and never blocks indefinitely on a slow peer;
  // at the watermark the SlowConsumerPolicy decides. Without it the
  // session has unlimited credit and sends no grants. Both ends should
  // enable it (a flow-controlled sender facing a peer that never grants
  // credit is, by definition, facing the zero-credit persona and applies
  // its SlowConsumerPolicy).
  bool flow_control = false;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlockWithDeadline;
  std::size_t send_queue_records = 256;      // hard queue bound (records)
  std::size_t send_queue_bytes = 4u << 20;   // and its byte bound
  double send_queue_watermark = 0.75;        // policy fires at this fill
  int send_block_deadline_ms = 2000;         // kBlockWithDeadline wait
  // Receiver side: the drain budget each 0x08 grant advertises.
  std::size_t receive_window_records = 128;
  std::size_t receive_window_bytes = 2u << 20;
  // receive_batch(): worker threads for parallel decode of the drained
  // records (DESIGN.md §5i). 0 or 1 decodes inline on the caller thread;
  // the pool is spawned lazily on the first receive_batch() call.
  std::size_t batch_decode_workers = 0;
  // Budget for the decoder's conversion-plan cache (DESIGN.md §5k).
  // Default unbounded. The session pins the plan of every (sender,
  // receiver) pair it batch-decodes, so a registration storm elsewhere in
  // the process can never evict a live session's decode path; a pin the
  // budget cannot honour is counted (plan_pin_failures()) and the pair
  // simply rebuilds its plan under pressure instead.
  CacheBudget plan_cache_budget;
};

class MessageSession {
 public:
  // The session shares `registry`: announcements from the peer are
  // adopted into it; outgoing formats are announced from it.
  //
  // With options.resumable this is the passive resumable flavour: it runs
  // over `channel` until it dies, then waits (bounded by the liveness
  // deadline) for a replacement to arrive via attach() — the acceptor side
  // of a reconnecting pair.
  MessageSession(net::Channel channel, pbio::FormatRegistry& registry,
                 SessionOptions options = {});

  // Active resumable flavour: dials `endpoint` on first use and re-dials
  // it whenever the transport dies. Always resumable.
  MessageSession(net::Endpoint endpoint, pbio::FormatRegistry& registry,
                 SessionOptions options = {});

  MessageSession(MessageSession&&) = default;

  // Active sessions: dial now instead of lazily on first send/receive.
  // Sends the initiate handshake; the peer's acceptor should accept and
  // wrap (or attach) the resulting channel.
  Status connect_now();

  // Hands a passive resumable session its replacement transport after a
  // drop. Thread-safe: listener/accept loops call this from any thread;
  // the session installs the channel at its next send/receive.
  void attach(net::Channel replacement);

  // Marshals `record` and sends it, announcing the encoder's format first
  // if this session has not carried it yet. Gather I/O over pooled scratch:
  // after the first few sends of a format the steady state copies only the
  // header (plus the slot-patched fixed section for var-bearing formats)
  // and performs no heap allocation. Resumable sessions additionally copy
  // the frame into the bounded replay buffer until the peer acks it.
  // Without flow control the record is on the wire when send() returns
  // (kTimeout if the peer stops reading for a whole send deadline); with
  // it, what credit does not cover waits in the send queue.
  Status send(const pbio::Encoder& encoder, const void* record);

  // Sends an already-encoded record belonging to `format`.
  Status send_encoded(const pbio::Format& format,
                      std::span<const std::uint8_t> record);

  // Pre-announce a format without sending data (e.g. at startup, so the
  // receiver can bind before the first record arrives).
  Status announce(const pbio::Format& format);

  struct Incoming {
    std::vector<std::uint8_t> bytes;  // a complete PBIO wire record
    pbio::FormatPtr sender_format;
  };

  // Borrowed variant of Incoming: the record stays in the session's pooled
  // frame buffer, valid until the next receive/receive_view call. Pair
  // with an Arena the caller rewind()s between records for allocation-free
  // steady-state decode.
  struct IncomingView {
    std::span<const std::uint8_t> bytes;  // a complete PBIO wire record
    pbio::FormatPtr sender_format;
  };

  // Next data record; format announcements, handshakes and ping/pong are
  // consumed transparently. kNotFound = peer closed cleanly (non-resumable
  // only), kTimeout = deadline elapsed, kDataLoss = a sequence gap the
  // peer's replay buffer could not cover (reported once per gap). A
  // timeout that falls mid-frame keeps the bytes already read: the next
  // call completes the frame, so the stream stays framed. Truncated or
  // corrupted frames (a peer dying mid-record) surface as clean
  // kParseError/kOutOfRange statuses — the session object stays usable
  // and counts them in malformed_frames().
  //
  // Resumable sessions do not surface transport deaths at all: the loop
  // reconnects (active) or waits for attach() (passive) and keeps
  // receiving; only a peer silent/unreachable past the liveness deadline
  // surfaces, as kTimeout.
  //
  // Two defenses against a *hostile* peer, not just a dying one:
  //  - A format whose records fail structural inspection is quarantined:
  //    further records claiming that format id fail fast (kMalformedInput)
  //    without re-parsing, until a fresh announcement of the id clears it.
  //  - Each malformed frame draws down a per-peer budget
  //    (limits().max_malformed_frames); once exhausted the session is
  //    poisoned and every later receive() fails with kResourceExhausted.
  Result<Incoming> receive(int timeout_ms = 10000);

  // receive() without the copy into a fresh vector: frames land in a
  // pooled buffer whose capacity persists across calls, so once warmed the
  // receive path allocates nothing. Same quarantine/poisoning semantics.
  Result<IncomingView> receive_view(int timeout_ms = 10000);

  // Batched receive-and-decode (DESIGN.md §5i): waits up to `timeout_ms`
  // for the first data record, then greedily drains records the transport
  // already has queued — without further waiting — up to `max_records`,
  // and decodes the whole batch against `receiver` across the
  // options_.batch_decode_workers pool. Record i lands at
  // `out + i * stride` (stride >= receiver.struct_size()); out-of-line
  // strings/arrays live in the batch arenas and stay valid until the next
  // receive_batch() call. Returns the number of records decoded (>= 1; a
  // timeout before the first record surfaces as kTimeout). A peer close
  // or liveness failure mid-drain stops the drain and delivers what
  // already arrived; the next call reports the condition.
  Result<std::size_t> receive_batch(const pbio::Format& receiver, void* out,
                                    std::size_t stride,
                                    std::size_t max_records,
                                    int timeout_ms = 10000);

  // Asks a durable peer to re-send its logged history from `from_seq`
  // (inclusive; clamped to the peer's durable range). The replayed
  // records arrive through receive() in order with their original
  // sequence numbers; the local dedup window is rewound so they are not
  // mistaken for a gap. A non-durable peer silently ignores the request.
  Status request_replay(std::uint64_t from_seq);

  // Per-peer decode budgets; forwarded to the record decoder and applied
  // to announcement parsing and frame sizes.
  void set_limits(const DecodeLimits& limits);
  const DecodeLimits& limits() const { return limits_; }

  void close() {
    closed_ = true;
    channel_.close();
  }

  // The live transport (test seam: chaos harnesses arm failures on it).
  net::Channel& channel() { return channel_; }
  const net::Channel& channel() const { return channel_; }

  // Diagnostics for the amortization bench: how many metadata frames this
  // session sent/received versus data records — and, for resumable
  // sessions, how much recovery work the resumption layer performed.
  std::size_t announcements_sent() const { return announcements_sent_; }
  std::size_t announcements_received() const { return announcements_received_; }
  std::size_t records_sent() const { return records_sent_; }
  std::size_t records_received() const { return records_received_; }
  std::size_t metadata_bytes_sent() const { return metadata_bytes_sent_; }
  std::size_t malformed_frames() const { return malformed_frames_; }
  std::size_t reconnects() const { return reconnects_; }
  std::size_t replayed_records() const { return replayed_records_; }
  std::size_t duplicates_discarded() const { return duplicates_discarded_; }
  std::size_t transport_losses() const { return transport_losses_; }
  std::uint64_t session_id() const { return session_id_; }
  std::uint32_t epoch() const { return epoch_; }
  bool poisoned() const { return poisoned_; }
  // Unacked records silently pushed out of the bounded replay buffer
  // with no durable-log copy to fall back on — each one is a record a
  // future resume cannot recover.
  std::size_t evicted_records() const { return evicted_records_; }
  bool durable() const { return durable_; }
  // Why durability is unavailable (open/append/fsync failure); OK while
  // the write-ahead path is healthy.
  Status durable_status() const { return durable_error_; }
  // The local log's replayable range; 0/0 when empty or not durable.
  std::uint64_t durable_first_seq() const {
    return log_ ? log_->first_seq() : 0;
  }
  std::uint64_t durable_last_seq() const {
    return log_ ? log_->last_seq() : 0;
  }
  // The peer's advertised durable range (tag 0x06); 0/0 until heard.
  std::uint64_t peer_durable_first() const { return peer_durable_first_; }
  std::uint64_t peer_durable_last() const { return peer_durable_last_; }
  bool is_quarantined(pbio::FormatId id) const {
    return quarantined_.contains(id);
  }
  // Conversion plans pinned on behalf of this session's live (sender,
  // receiver) pairs; pins survive resume/replay and drop on quarantine.
  std::size_t plan_pins_held() const { return plan_pins_.size(); }
  // Pin attempts the plan-cache budget refused (kResourceExhausted).
  // Non-fatal: the pair still decodes, rebuilding its plan on demand.
  std::size_t plan_pin_failures() const { return plan_pin_failures_; }
  CacheStats plan_cache_stats() const { return decoder_->plan_cache_stats(); }

  // --- flow-control diagnostics ---------------------------------------
  bool flow_controlled() const { return options_.flow_control; }
  // Credit grants this end sent (receiver role) / absorbed (sender role).
  std::size_t credit_grants_sent() const { return credit_grants_sent_; }
  std::size_t credit_grants_received() const {
    return credit_grants_received_;
  }
  // Records the peer's cumulative credit still lets us put on the wire.
  std::uint64_t credit_records_available() const {
    return credit_seq_limit_ >= next_transmit_seq_
               ? credit_seq_limit_ - next_transmit_seq_ + 1
               : 0;
  }
  std::uint64_t credit_seq_limit() const { return credit_seq_limit_; }
  std::size_t send_queue_depth() const { return data_queue_records_; }
  std::size_t send_queue_bytes_now() const { return data_queue_bytes_; }
  // High-water marks since the session started: the bounded-memory proof.
  std::size_t send_queue_depth_peak() const { return send_queue_depth_peak_; }
  std::size_t send_queue_bytes_peak() const { return send_queue_bytes_peak_; }
  // Records dropped from memory under kSpillToLog (none is lost), and
  // dropped for good under kShedOldest (each named in a 0x09 notice;
  // peer_shed_records() sums the notices received).
  std::size_t records_spilled() const { return records_spilled_; }
  std::size_t records_shed() const { return records_shed_; }
  std::uint64_t peer_shed_records() const { return peer_shed_records_; }
  // Total time sends spent blocked waiting for queue room or credit.
  double send_block_ms() const { return send_block_ms_; }

 private:
  MessageSession(net::Channel channel, net::Endpoint endpoint,
                 pbio::FormatRegistry& registry, SessionOptions options);

  // One unacknowledged outgoing frame, kept until the peer's ack covers
  // its sequence number (or the bounded buffer evicts it).
  struct ReplayEntry {
    std::uint64_t seq = 0;
    pbio::FormatId format_id = 0;  // 0 for frames with no format owner
    std::vector<std::uint8_t> frame;  // complete wire frame (tag included)
  };

  // Replacement transports arrive from other threads; heap-pinned so the
  // session object itself stays movable.
  struct AttachSlot {
    std::mutex mutex;
    std::optional<net::Channel> pending;
  };

  // Counts a hostile/corrupt frame against the per-peer budget; returns
  // the (possibly upgraded) status to hand the caller.
  Status note_malformed(Status status);

  // Pin the (sender, receiver) conversion plan on first batch use so
  // cache pressure cannot evict a live pair mid-session; budget refusals
  // are counted, never fatal.
  void pin_batch_plan(const pbio::FormatPtr& sender,
                      const pbio::Format& receiver);
  // Quarantining a sender format releases its pins — a poisoned format's
  // plans are fair game for eviction.
  void drop_plan_pins_for(pbio::FormatId sender_id);

  // --- resumption machinery -------------------------------------------
  bool active() const { return endpoint_.can_dial(); }
  void install_pending_attach();
  void note_transport_lost();
  // Installs any attached channel; active sessions reconnect here. Passive
  // ones return OK while disconnected: sends buffer until the peer resumes.
  Status ready_to_send();
  // Blocks (within budget_ms and the liveness deadline) until a transport
  // is live again: redials (active) or waits for attach() (passive).
  Status await_transport(int budget_ms);
  Status reconnect(int budget_ms);
  Status send_handshake(bool initiate);
  Status process_handshake(std::span<const std::uint8_t> payload);
  // Validates and absorbs a peer ack (their last-seq-received): trims the
  // replay buffer and advances peer_acked_seq_.
  Status absorb_ack(std::uint64_t last_seq);
  // Rebuilds the data queue after a resume: every unacked record goes out
  // again as credit-exempt history, queued shed notices keep their
  // sequence position, and the writer is flushed.
  Status replay_unacked();
  void maybe_ping();
  // Appends a full wire frame to the replay buffer (resumable only) and
  // evicts from the front to stay within the configured bounds.
  void buffer_for_replay(std::uint64_t seq, pbio::FormatId format_id,
                         std::span<const IoSlice> slices);
  // The tail every record send shares: admission, sequencing, replay
  // buffer, write-ahead log, then the writer — and, for a session with
  // unlimited credit, a flush so send() returns with the record written.
  Status send_record(pbio::FormatId format_id,
                     std::span<const IoSlice> payload);

  // --- the writer (DESIGN.md §5h) --------------------------------------
  enum class FrameKind : std::uint8_t {
    kControl,  // credit-exempt; may pass queued data
    kData,     // a sequenced record; needs credit
    kNotice,   // a 0x09 shed notice in data position; credit-exempt
    kHistory,  // records re-sent from the replay buffer or the log after a
               // resume or a replay request; credit-exempt
  };
  struct QueuedFrame {
    FrameKind kind = FrameKind::kControl;
    // kData: its seq; kNotice: the shed range's last seq; kHistory: the
    // next seq to re-send, up to `last`.
    std::uint64_t seq = 0;
    std::uint64_t last = 0;
    pbio::FormatId format_id = 0;  // kData
    std::vector<std::uint8_t> frame;  // frame payload, tag first
  };
  // The one frame partially on the wire: its payload from `offset` on (a
  // control frame is kept whole, so a dead transport can re-queue it).
  struct MidWire {
    FrameKind kind = FrameKind::kControl;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> tail;
    std::size_t offset = 0;
    std::size_t cursor = 0;  // wire bytes written; 0 = nothing mid-wire
  };
  // A record to re-send: a replay-buffer entry, or a logged record.
  struct HeldFrame {
    std::array<std::uint8_t, 9> head{};
    std::array<IoSlice, 2> slices{};
    std::size_t bytes = 0;
    pbio::FormatId format_id = 0;
  };
  // The only routine that starts a frame on the wire. OK = committed (all
  // written, or the unwritten tail kept in midwire_ — moved from `owned`
  // when given, else copied, whole for a control frame); kUnavailable =
  // nothing written.
  Status write_frame(std::span<const IoSlice> frame, FrameKind kind,
                     std::uint64_t seq, std::vector<std::uint8_t>* owned);
  // Writes at once when nothing is ahead, else queues. A droppable frame
  // (ping, pong, grant) is skipped when the control queue is full; a
  // must-deliver one whose transport died under it waits for the next.
  Status emit_control(std::span<const std::uint8_t> frame, bool droppable);
  Status emit_record(std::uint64_t seq, pbio::FormatId format_id,
                     std::span<const IoSlice> frame);
  // Mid-wire frame, control frames, then data as credit allows. OK = no
  // more can go now; kUnavailable = the socket would block.
  Status pump();
  // pump() until no more can go; the channel's send deadline bounds each
  // stall (time without a byte written), not the whole flush.
  Status flush();
  // Grows with every byte written on this transport.
  std::size_t wire_progress() const {
    return channel_.bytes_sent() + midwire_.cursor;
  }
  // How a send ends: with unlimited credit its frames are on the wire
  // (flush); with flow control the queue carries them as credit allows.
  Status settle();
  // Sends one announcement; `seq` is the first record that may need it.
  Status announce_frame(const pbio::Format& format, std::uint64_t seq);
  // Schema ahead of data on re-sends: true when `id` went out first.
  bool reannounce(pbio::FormatId id, std::uint64_t seq);
  // The first record in [seq, last] the replay buffer or the log holds.
  bool load_held(std::uint64_t& seq, std::uint64_t last, HeldFrame& out);
  bool read_log(std::uint64_t seq);
  void queue_history(std::uint64_t first, std::uint64_t last);
  // Credit is counted in wire bytes: the payload plus its length prefix.
  bool credit_allows(std::uint64_t seq, std::size_t payload_bytes) const;
  void note_transmitted(std::uint64_t seq, std::size_t payload_bytes);
  // A new transport: a record mid-wire rewinds the transmit cursor, a
  // notice mid-wire is re-queued, and handshakes, adverts and requests
  // queued for the old transport are dropped.
  void reset_wire();
  void clear_data_queue();
  void drop_outbound();  // kDisconnect, or a write side dead for good
  // A plain session leaves its writer to the thread that sends, so one
  // thread may send while another receives.
  bool receive_pumps() const { return resumable_ || options_.flow_control; }

  // --- the reader -----------------------------------------------------
  // Next complete frame from the channel's assembler, pumping the writer
  // and polling between reads; kUnavailable (allocation-free) once
  // timeout_ms passes without one. A timeout mid-frame keeps the bytes
  // already read in the channel.
  Status read_frame(std::vector<std::uint8_t>& out, int timeout_ms);
  // Empty frames, pings, pongs and credit grants, absorbed in place by
  // both inbound paths; false for any other frame.
  bool absorb_control(std::span<const std::uint8_t> frame, Status& status);

  // --- flow-control machinery -----------------------------------------
  // Validates and applies a peer 0x08 credit grant. Order: length, zero
  // windows, absurd windows, u64 reach wrap, reach rollback, then the
  // ack itself — hostile values never touch credit state.
  Status process_credit(std::span<const std::uint8_t> payload);
  // Validates a peer 0x09 shed notice and advances the dedup window.
  // Returns kDataLoss only for records lost *silently* before the range.
  Status process_shed(std::span<const std::uint8_t> payload);
  // Receiver role: grant when forced (handshake, ping) or when half the
  // window has drained since the last grant.
  void maybe_grant(bool force);
  // Nonblocking inbound sweep for the send paths: absorbs acks, credit and
  // pings, parks everything else for the next receive_view.
  void poll_control();
  // Applies the SlowConsumerPolicy at the watermark, before a sequence
  // number or a WAL append is spent, so a rejected send leaves no hole.
  Status admit_record(std::size_t frame_bytes);
  bool queue_over_watermark(std::size_t incoming_bytes) const;
  // kSpillToLog: drop queued data frames — the WAL holds them, and the
  // writer re-sends them from there as the next data frames.
  void spill_queue();
  // kShedOldest: drop the oldest queued data frames, splice tag-0x09
  // notices in their place, scrub them from the replay buffer, count.
  Status shed_queue();
  // Inserts a 0x09 notice for [first, last] at `index` in the data queue,
  // ahead of every surviving later record; returns the index past it.
  std::size_t splice_shed_notice(std::size_t index, std::uint64_t first,
                                 std::uint64_t last);
  // Durable sheds leave an auditable trace beside the log segments.
  void append_shed_sidecar(std::uint64_t first, std::uint64_t last);
  bool liveness_stale() const {
    return clock_.elapsed_ms() - last_inbound_ms_ >=
           options_.liveness_deadline_ms;
  }
  // Arms the channel-level send deadline on every transport this session
  // adopts, so a blocked send can never outlive the liveness deadline.
  void configure_transport();

  // --- durability machinery -------------------------------------------
  // Opens log + catalog + meta under options_.durable_dir; failures land
  // in durable_error_ and surface on first send/announce/connect.
  void init_durability();
  // Atomically persists (session id, epoch); called before any handshake
  // that presents a changed identity.
  Status persist_meta();
  // Write-ahead step of send (slices exclude the [tag | seq] head). Fails,
  // and keeps failing, once the log is poisoned.
  Status append_durable(std::uint64_t seq, pbio::FormatId format_id,
                        std::span<const IoSlice> slices);
  // Persists a format to the catalog (no-op when not durable / known).
  Status catalog_put(const pbio::Format& format);
  // Advertises [first, last] of the local log after a handshake.
  Status send_durable_advert();

  net::Channel channel_;
  net::Endpoint endpoint_;  // non-dialable for passive/plain sessions
  pbio::FormatRegistry* registry_;
  std::unique_ptr<pbio::Decoder> decoder_;  // Decoder holds a mutex: heap-pin it
  std::unique_ptr<pbio::BatchDecoder> batch_decoder_;  // lazy; receive_batch
  // receive_batch() staging, reused so steady-state batches allocate
  // nothing once buffer capacities have grown.
  std::vector<std::vector<std::uint8_t>> batch_records_;
  std::vector<std::span<const std::uint8_t>> batch_spans_;
  std::unique_ptr<AttachSlot> attach_slot_;
  SessionOptions options_;
  bool resumable_ = false;
  bool closed_ = false;
  DecodeLimits limits_ = DecodeLimits::defaults();
  std::set<pbio::FormatId> announced_;
  std::set<pbio::FormatId> quarantined_;
  // Held plan pins, keyed (sender id, receiver id). Declared after
  // decoder_: pins release into the decoder's cache on destruction, so
  // they must die first (members destroy in reverse declaration order).
  std::map<std::pair<pbio::FormatId, pbio::FormatId>, pbio::Decoder::PlanPin>
      plan_pins_;
  std::size_t plan_pin_failures_ = 0;
  // next_seq_ at the moment each format was announced by *us*: if the
  // peer's ack is below this, the announcement itself may be lost and the
  // format must be re-announced on resume. Peer-announced formats never
  // appear here and are never un-announced.
  std::map<pbio::FormatId, std::uint64_t> announce_seq_;
  // Pooled I/O state: capacity persists across messages (zero steady-state
  // allocations), contents are per-call.
  ByteBuffer send_scratch_;
  std::vector<IoSlice> send_slices_;
  std::vector<IoSlice> frame_slices_;  // [tag | seq] head + record payload
  std::array<std::uint8_t, 9> record_head_{};
  ByteBuffer announce_scratch_;
  std::vector<std::uint8_t> recv_frame_;
  // Send-side sequencing and the bounded replay window.
  std::uint64_t next_seq_ = 1;
  std::uint64_t peer_acked_seq_ = 0;
  std::deque<ReplayEntry> replay_;
  std::size_t replay_bytes_ = 0;
  // Receive-side dedup state.
  std::uint64_t last_seq_received_ = 0;
  // Identity and liveness.
  std::uint64_t session_id_ = 0;
  std::uint32_t epoch_ = 0;
  Stopwatch clock_;
  double last_inbound_ms_ = 0;
  double last_ping_ms_ = -1e18;
  double transport_lost_ms_ = -1;  // <0: transport never lost yet
  bool poisoned_ = false;
  // Durability state. The log and catalog are heap-pinned (like the
  // decoder) so the session object stays movable.
  bool durable_ = false;
  std::unique_ptr<storage::RecordLog> log_;
  std::unique_ptr<storage::FormatCatalog> catalog_;
  Status durable_error_;
  std::size_t evicted_records_ = 0;
  bool eviction_logged_ = false;
  std::uint64_t peer_durable_first_ = 0;
  std::uint64_t peer_durable_last_ = 0;
  // Writer state. The data queue holds sequenced records, in-position
  // shed notices and history ranges; the control queue holds credit-exempt
  // frames that may go out earlier than anything queued behind them. At
  // most one frame, across both queues and direct writes, is mid-wire.
  MidWire midwire_;
  std::deque<QueuedFrame> control_queue_;
  std::deque<QueuedFrame> send_queue_;
  std::size_t data_queue_records_ = 0;
  std::size_t data_queue_bytes_ = 0;
  HeldFrame held_;  // the record a re-send is writing right now
  std::optional<storage::RecordLog::Cursor> log_cursor_;
  storage::RecordLog::Item log_item_;  // the cursor's current record
  std::uint64_t next_transmit_seq_ = 1;  // next data seq owed to the wire
  std::uint64_t credit_seq_limit_ = 0;   // cumulative transmit allowance
  std::uint64_t credit_bytes_window_ = 0;
  // Transmitted-but-unacked (seq, wire bytes): the byte-window ledger. A
  // vector, so acks erase without giving back its capacity.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> inflight_;
  std::uint64_t inflight_bytes_ = 0;
  std::uint64_t last_grant_ack_ = 0;  // receiver: ack in our last grant
  // Reader state. Data/announce frames poll_control() pulled off the wire
  // while a send path was draining acks; receive_view consumes these
  // first. Partial inbound frames wait in the channel.
  std::deque<std::vector<std::uint8_t>> pending_frames_;
  std::vector<std::uint8_t> poll_frame_;
  std::size_t credit_grants_sent_ = 0;
  std::size_t credit_grants_received_ = 0;
  std::size_t send_queue_depth_peak_ = 0;
  std::size_t send_queue_bytes_peak_ = 0;
  std::size_t records_spilled_ = 0;
  std::size_t records_shed_ = 0;
  std::uint64_t peer_shed_records_ = 0;
  double send_block_ms_ = 0;
  std::size_t announcements_sent_ = 0;
  std::size_t announcements_received_ = 0;
  std::size_t records_sent_ = 0;
  std::size_t records_received_ = 0;
  std::size_t metadata_bytes_sent_ = 0;
  std::size_t malformed_frames_ = 0;
  std::size_t reconnects_ = 0;
  std::size_t replayed_records_ = 0;
  std::size_t duplicates_discarded_ = 0;
  std::size_t transport_losses_ = 0;
};

// Convenience: a connected session pair over a socketpair, sharing
// *separate* registries (as two processes would).
struct SessionPair {
  MessageSession a;
  MessageSession b;
};
Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b);
// Same, with options applied to both ends (e.g. a flow-controlled pair).
Result<SessionPair> make_session_pipe(pbio::FormatRegistry& registry_a,
                                      pbio::FormatRegistry& registry_b,
                                      SessionOptions options);

// Convenience: a connected resumable session pair over real TCP —
// `a` actively dials the bundled listener, `b` is the accepted passive
// side. The listener rides along so recovery tests can re-accept after a
// kill and attach() the replacement to `b`.
struct TcpSessionPair {
  net::ChannelListener listener;
  MessageSession a;
  MessageSession b;
};
Result<TcpSessionPair> make_session_tcp(pbio::FormatRegistry& registry_a,
                                        pbio::FormatRegistry& registry_b,
                                        SessionOptions options = {});

}  // namespace xmit::session

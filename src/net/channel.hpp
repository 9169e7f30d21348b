// Channel: the message transport the application components talk over.
//
// Length-prefixed byte messages over a stream socket. Two flavours share
// the class: connected TCP channels (Hydrology components across
// processes, latency benches) and socketpair pipes (components co-resident
// in one process). PBIO records pass through whole — the channel is
// payload-agnostic, exactly like the transport layer beneath a BCM.
//
// This is the only module that knows the wire frame, [u32 LE length |
// payload]. One writer, send_some, stores the length prefix; every send
// path (send, send_gather, MessageSession's writer) is a loop around it.
// One assembler, try_receive, loads the prefix; receive_into and
// MessageSession's reader are poll loops around it. The assembler reads
// ahead: one recv may pull several frames, or the start of the next,
// into the channel's buffer, and a frame already buffered is returned
// without waiting on the socket. Partial frames stay buffered across
// calls and die with the Channel object. The writer and the assembler
// share no state, so one thread may send while another receives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace xmit::net {

// Bytes of the u32 length prefix in front of every frame's payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;

// Test seam for the chaos harness: a channel can be armed to die after a
// byte budget, modelling a peer crash (kill: already-written bytes stay in
// the kernel buffer and drain to the receiver before EOF) or an abortive
// close (reset: SO_LINGER{1,0} turns close() into an RST that may destroy
// in-flight data too). kNone is the production state.
enum class InjectedFailure : std::uint8_t {
  kNone = 0,
  kKillAfterBytes,   // send budget bytes (headers included), then close
  kResetAfterBytes,  // as above, but close abortively (TCP RST)
};

class Channel {
 public:
  Channel() = default;
  ~Channel();
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Bidirectional in-process pair (AF_UNIX socketpair).
  static Result<std::pair<Channel, Channel>> pipe();

  // TCP client connection to `host`:`port` (numeric address or name,
  // resolved IPv4). A connect that does not complete within timeout_ms
  // yields kTimeout; refusal is kIoError.
  static Result<Channel> connect(const std::string& host, std::uint16_t port,
                                 int timeout_ms = 5000);

  // Back-compat convenience: loopback connect.
  static Result<Channel> connect(std::uint16_t port, int timeout_ms = 5000) {
    return connect("127.0.0.1", port, timeout_ms);
  }

  bool is_open() const { return fd_ >= 0; }

  // send_gather of one slice.
  Status send(std::span<const std::uint8_t> message);
  Status send(const std::vector<std::uint8_t>& message) {
    return send(std::span<const std::uint8_t>(message));
  }

  // The single writer: a nonblocking framed gather send with partial-write
  // resumption. The frame's payload is the concatenation of `slices`, and
  // `cursor` tracks progress through its wire image ([kFrameHeaderBytes
  // header | payload]). Callers start the cursor at 0 and pass it back
  // until the frame completes. Bytes before the cursor are never read, so
  // a caller resuming a frame whose head it no longer holds may pass a
  // placeholder slice of the same length. Returns OK when the whole frame
  // is on the wire, kUnavailable (with no message, so nothing is
  // allocated) when the socket would block (the cursor says how far it
  // got), and kIoError on a dead transport. An armed failure (see
  // arm_failure) is applied here, each sendmsg capped at the budget left.
  // A frame abandoned mid-cursor leaves the stream unframeable: the only
  // safe next step is close().
  Status send_some(std::span<const IoSlice> slices, std::size_t& cursor);

  // True when a send of at least one byte would not block (POLLOUT within
  // timeout_ms; 0 = poll-and-return).
  bool poll_writable(int timeout_ms);

  // Bounds every blocking send: a send that cannot place its bytes within
  // `deadline_ms` fails with kTimeout and closes the channel (the frame is
  // partially written — the stream cannot be re-synchronized). Negative
  // restores the unbounded default. This is the liveness fix for senders
  // wedged toward a peer that stopped reading.
  void set_send_deadline(int deadline_ms) { send_deadline_ms_ = deadline_ms; }
  int send_deadline_ms() const { return send_deadline_ms_; }

  // Blocking send of one frame whose payload is the concatenation of
  // `slices`: send_some, waiting in poll_writable under the send deadline
  // whenever the socket is full. Nothing is copied into an intermediate
  // buffer and nothing is heap-allocated, for any slice count.
  Status send_gather(std::span<const IoSlice> slices);

  // Waits for the next complete frame; see receive_into.
  Result<std::vector<std::uint8_t>> receive(int timeout_ms = 5000);

  // A poll loop around try_receive: the next complete frame into a
  // caller-owned buffer (once `out`'s capacity has grown to the largest
  // frame, further receives allocate nothing). A frame already buffered
  // returns at once; otherwise each wait for more bytes lasts up to
  // timeout_ms. With nothing of a frame read, an expired wait yields
  // kTimeout and the channel stays usable. Once any byte of a frame has
  // been read the frame must complete: an expired wait past that point
  // closes the channel and reports kIoError, because the stream can no
  // longer be re-framed (the same rule as the send deadline). A cleanly
  // closed peer yields kNotFound ("end of stream"), a peer closing
  // mid-frame kIoError, a length prefix over 1 GiB kResourceExhausted.
  Status receive_into(std::vector<std::uint8_t>& out, int timeout_ms = 5000);

  // The single frame assembler, nonblocking: moves the next complete frame
  // into `out`, reading whatever the socket holds without blocking.
  // Returns kUnavailable (with no message, so nothing is allocated) when
  // no complete frame is there yet — the partial bytes stay buffered for
  // the next call. A length prefix over `max_bytes` is kResourceExhausted
  // before any of its body is read; the buffer grows with the bytes that
  // arrive, never by what a prefix claims. EOF is kNotFound between
  // frames and kIoError mid-frame.
  Status try_receive(std::vector<std::uint8_t>& out, std::size_t max_bytes);

  // True when a recv of at least one byte (or EOF) would not block.
  bool poll_readable(int timeout_ms);

  void close();

  // Arms a deterministic failure: after `byte_budget` more outgoing bytes
  // (frame headers count — they are wire bytes) the channel sends the
  // prefix that fits, dies per `mode`, and the pending send returns
  // kIoError. Exactly how a peer crash at that byte looks from both ends.
  void arm_failure(InjectedFailure mode, std::size_t byte_budget) {
    failure_ = mode;
    failure_budget_ = byte_budget;
  }
  InjectedFailure armed_failure() const { return failure_; }

  std::size_t messages_sent() const { return sent_; }
  std::size_t bytes_sent() const { return bytes_sent_; }

 private:
  explicit Channel(int fd) : fd_(fd) {}
  friend class ChannelListener;

  // Spends an exhausted failure budget: dies per the armed mode.
  Status fail_injected();

  int fd_ = -1;
  std::size_t sent_ = 0;
  std::size_t bytes_sent_ = 0;
  int send_deadline_ms_ = -1;  // <0: block indefinitely (legacy behaviour)
  InjectedFailure failure_ = InjectedFailure::kNone;
  std::size_t failure_budget_ = 0;
  // Inbound bytes read ahead; [in_pos_, in_end_) await re-framing.
  std::vector<std::uint8_t> in_buf_;
  std::size_t in_pos_ = 0;
  std::size_t in_end_ = 0;
};

class ChannelListener {
 public:
  ~ChannelListener();
  ChannelListener(ChannelListener&& other) noexcept;
  ChannelListener& operator=(ChannelListener&& other) noexcept;
  ChannelListener(const ChannelListener&) = delete;
  ChannelListener& operator=(const ChannelListener&) = delete;

  // Listens on 127.0.0.1:`port` (0 picks a free port).
  static Result<ChannelListener> listen(std::uint16_t port = 0);

  std::uint16_t port() const { return port_; }

  Result<Channel> accept(int timeout_ms = 5000);

 private:
  explicit ChannelListener(int fd, std::uint16_t port)
      : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace xmit::net

// Channel: the message transport the application components talk over.
//
// Length-prefixed byte messages (u32 little-endian frame header) over a
// stream socket. Two flavours share the class: connected TCP channels
// (Hydrology components across processes, latency benches) and socketpair
// pipes (components co-resident in one process). PBIO records pass
// through whole — the channel is payload-agnostic, exactly like the
// transport layer beneath a BCM.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace xmit::net {

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

  Status send(std::span<const std::uint8_t> message);
  Status send(const std::vector<std::uint8_t>& message) {
    return send(std::span<const std::uint8_t>(message));
  }

  // Nonblocking framed gather send with partial-write resumption: the
  // frame's payload is the concatenation of `slices`, and `cursor` tracks
  // progress through its wire image ([4-byte header | payload]). Callers
  // start the cursor at 0 and pass it back until the frame completes.
  // Bytes before the cursor are never read, so a caller resuming a frame
  // whose head it no longer holds may pass a placeholder slice of the same
  // length. Returns OK when the whole frame is on the wire, kUnavailable
  // when the socket would block (the cursor says how far it got), and
  // kIoError / kTimeout on a dead transport. A frame abandoned mid-cursor
  // leaves the stream unframeable: the only safe next step is close().
  Status send_some(std::span<const IoSlice> slices, std::size_t& cursor);

  // True when a send of at least one byte would not block (POLLOUT within
  // timeout_ms; 0 = poll-and-return).
  bool poll_writable(int timeout_ms);

  // Bounds every blocking send path: a send that cannot place its bytes
  // within `deadline_ms` fails with kTimeout and closes the channel (the
  // frame is partially written — the stream cannot be re-synchronized).
  // Negative restores the unbounded default. This is the liveness fix for
  // senders wedged in send_all toward a peer that stopped reading.
  void set_send_deadline(int deadline_ms) { send_deadline_ms_ = deadline_ms; }
  int send_deadline_ms() const { return send_deadline_ms_; }

  // Sends one frame whose payload is the concatenation of `slices`
  // (sendmsg gather I/O) — the wire bytes are identical to send() of the
  // flattened message, but nothing is copied into an intermediate buffer
  // and nothing is heap-allocated, for any slice count.
  Status send_gather(std::span<const IoSlice> slices);

  // Blocks up to timeout_ms for the next complete frame. A cleanly closed
  // peer yields kNotFound ("end of stream"), an expired deadline yields
  // kTimeout, and every other socket failure is kIoError. Once any byte of
  // a frame has been consumed the frame must complete: a timeout past that
  // point closes the channel and reports kIoError, because the stream can
  // no longer be re-framed (the same rule as the send deadline).
  Result<std::vector<std::uint8_t>> receive(int timeout_ms = 5000);

  // receive() into a caller-owned buffer: once `out`'s capacity has grown
  // to the session's largest frame, further receives allocate nothing.
  Status receive_into(std::vector<std::uint8_t>& out, int timeout_ms = 5000);

  // Nonblocking raw receive into `into`, caller-owned spare space that is
  // neither cleared nor resized: returns how many bytes arrived, 0 when
  // nothing is waiting (EAGAIN), kNotFound on EOF, kIoError otherwise.
  // Callers own the re-framing; this is the readiness primitive
  // MessageSession's frame assembler drains from, and it must not be
  // mixed with receive_into on the same stream.
  Result<std::size_t> recv_some(std::span<std::uint8_t> into);

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

  // send_all that honours an armed failure; all send paths route their
  // wire bytes through here so byte budgets are exact.
  Status write_bytes(const void* data, std::size_t size);

  int fd_ = -1;
  std::size_t sent_ = 0;
  std::size_t bytes_sent_ = 0;
  int send_deadline_ms_ = -1;  // <0: block indefinitely (legacy behaviour)
  InjectedFailure failure_ = InjectedFailure::kNone;
  std::size_t failure_budget_ = 0;
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

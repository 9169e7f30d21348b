#include "net/channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/endian.hpp"

namespace xmit::net {
namespace {

constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

// Waits for the socket to accept bytes, honouring an optional deadline.
// Returns kTimeout once `deadline_ms` (measured from `start`) is spent.
Status wait_writable(int fd, int deadline_ms,
                     const std::chrono::steady_clock::time_point& start) {
  int wait = -1;
  if (deadline_ms >= 0) {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    wait = static_cast<int>(std::max<long long>(deadline_ms - spent, 0));
    if (wait == 0)
      return make_error(ErrorCode::kTimeout,
                        "channel send deadline elapsed (peer not reading)");
  }
  struct pollfd pfd = {fd, POLLOUT, 0};
  int ready = ::poll(&pfd, 1, wait);
  if (ready == 0)
    return make_error(ErrorCode::kTimeout,
                      "channel send deadline elapsed (peer not reading)");
  if (ready < 0 && errno != EINTR)
    return make_error(ErrorCode::kIoError, "channel poll failed");
  return Status::ok();
}

// Blocking send loop. With deadline_ms >= 0 the socket is driven
// nonblockingly and each stall waits in poll(POLLOUT) against the
// remaining budget, so a peer that stopped reading turns into a bounded
// kTimeout instead of a wedged sender.
Status send_all(int fd, const void* data, std::size_t size, int deadline_ms) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto start = std::chrono::steady_clock::now();
  const int flags =
      MSG_NOSIGNAL | (deadline_ms >= 0 ? MSG_DONTWAIT : 0);
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, p + sent, size - sent, flags);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && deadline_ms >= 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK)) {
      XMIT_RETURN_IF_ERROR(wait_writable(fd, deadline_ms, start));
      continue;
    }
    if (n <= 0)
      return make_error(ErrorCode::kIoError,
                        std::string("channel send failed: ") +
                            std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

// Drains a gather list with sendmsg, advancing past partial writes. The
// iovec array is caller-owned scratch and is consumed destructively.
Status sendmsg_all(int fd, struct iovec* iov, std::size_t count,
                   int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  const int flags =
      MSG_NOSIGNAL | (deadline_ms >= 0 ? MSG_DONTWAIT : 0);
  while (count > 0) {
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, flags);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && deadline_ms >= 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK)) {
      XMIT_RETURN_IF_ERROR(wait_writable(fd, deadline_ms, start));
      continue;
    }
    if (n <= 0)
      return make_error(ErrorCode::kIoError,
                        std::string("channel send failed: ") +
                            std::strerror(errno));
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov[0].iov_len) {
      left -= iov[0].iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + left;
      iov[0].iov_len -= left;
    }
  }
  return Status::ok();
}

// Reads exactly `size` bytes or reports why it could not; `got` says how
// many arrived before the failure.
Status recv_exact(int fd, void* data, std::size_t size, int timeout_ms,
                  std::size_t& got) {
  auto* p = static_cast<std::uint8_t*>(data);
  got = 0;
  while (got < size) {
    struct pollfd pfd = {fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0)
      return make_error(ErrorCode::kTimeout, "channel receive timeout");
    if (ready < 0)
      return make_error(ErrorCode::kIoError, "channel poll failed");
    ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return make_error(ErrorCode::kNotFound, "end of stream");
    if (n < 0) return make_error(ErrorCode::kIoError, "channel recv failed");
    got += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept
    : fd_(other.fd_),
      sent_(other.sent_),
      bytes_sent_(other.bytes_sent_),
      send_deadline_ms_(other.send_deadline_ms_),
      failure_(other.failure_),
      failure_budget_(other.failure_budget_) {
  other.fd_ = -1;
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    sent_ = other.sent_;
    bytes_sent_ = other.bytes_sent_;
    send_deadline_ms_ = other.send_deadline_ms_;
    failure_ = other.failure_;
    failure_budget_ = other.failure_budget_;
    other.fd_ = -1;
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::pair<Channel, Channel>> Channel::pipe() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    return Status(ErrorCode::kIoError, "socketpair() failed");
  return std::make_pair(Channel(fds[0]), Channel(fds[1]));
}

Result<Channel> Channel::connect(const std::string& host, std::uint16_t port,
                                 int timeout_ms) {
  const std::string where = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve the name (IPv4).
    struct addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 ||
        found == nullptr)
      return Status(ErrorCode::kNotFound, "cannot resolve host " + host);
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status(ErrorCode::kIoError, "socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Status(ErrorCode::kIoError, "connect to " + where + " failed");
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      ::close(fd);
      return Status(ErrorCode::kTimeout, "connect to " + where + " timed out");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (ready < 0 || so_error != 0) {
      ::close(fd);
      return Status(ErrorCode::kIoError, "connect to " + where + " failed");
    }
  }
  // Back to blocking for the framed send/receive paths.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Channel(fd);
}

Status Channel::write_bytes(const void* data, std::size_t size) {
  if (failure_ == InjectedFailure::kNone) {
    Status sent = send_all(fd_, data, size, send_deadline_ms_);
    // A blown send deadline leaves a partial frame on the wire: the
    // stream cannot be re-synchronized, so the transport is dead.
    if (sent.code() == ErrorCode::kTimeout) close();
    return sent;
  }
  if (size < failure_budget_) {
    failure_budget_ -= size;
    return send_all(fd_, data, size, send_deadline_ms_);
  }
  // Budget exhausted mid-write: emit the prefix the wire would have seen,
  // then die. For a kill the prefix stays in the kernel buffer and reaches
  // the peer before EOF; for a reset SO_LINGER{1,0} makes close() abortive.
  if (failure_budget_ > 0) {
    Status prefix = send_all(fd_, data, failure_budget_, send_deadline_ms_);
    (void)prefix;  // the connection is going down either way
  }
  if (failure_ == InjectedFailure::kResetAfterBytes) {
    struct linger lg = {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  failure_ = InjectedFailure::kNone;
  failure_budget_ = 0;
  close();
  return make_error(ErrorCode::kIoError,
                    "injected connection kill/reset mid-stream");
}

Status Channel::send(std::span<const std::uint8_t> message) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  if (message.size() > kMaxFrameBytes)
    return make_error(ErrorCode::kInvalidArgument, "message too large");
  std::uint8_t frame[4];
  store_with_order<std::uint32_t>(frame,
                                  static_cast<std::uint32_t>(message.size()),
                                  ByteOrder::kLittle);
  XMIT_RETURN_IF_ERROR(write_bytes(frame, sizeof(frame)));
  XMIT_RETURN_IF_ERROR(write_bytes(message.data(), message.size()));
  ++sent_;
  bytes_sent_ += message.size() + sizeof(frame);
  return Status::ok();
}

Status Channel::send_gather(std::span<const IoSlice> slices) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  std::uint64_t total = 0;
  for (const IoSlice& s : slices) total += s.size;
  if (total > kMaxFrameBytes)
    return make_error(ErrorCode::kInvalidArgument, "message too large");
  std::uint8_t frame[4];
  store_with_order<std::uint32_t>(frame, static_cast<std::uint32_t>(total),
                                  ByteOrder::kLittle);

  if (failure_ != InjectedFailure::kNone) {
    // Armed channels flatten the gather list so the byte budget is applied
    // to one contiguous wire image (test-only path; the alloc is fine).
    std::vector<std::uint8_t> flat;
    flat.reserve(sizeof(frame) + static_cast<std::size_t>(total));
    flat.insert(flat.end(), frame, frame + sizeof(frame));
    for (const IoSlice& s : slices) {
      const auto* p = static_cast<const std::uint8_t*>(s.data);
      flat.insert(flat.end(), p, p + s.size);
    }
    XMIT_RETURN_IF_ERROR(write_bytes(flat.data(), flat.size()));
    ++sent_;
    bytes_sent_ += static_cast<std::size_t>(total) + sizeof(frame);
    return Status::ok();
  }

  // Batch through a stack iovec array: the frame header rides in the first
  // batch, and records with more out-of-line fields than kIovBatch fall
  // back to additional sendmsg calls rather than a heap allocation.
  constexpr std::size_t kIovBatch = 64;
  struct iovec iov[kIovBatch + 1];
  std::size_t used = 0;
  iov[used].iov_base = frame;
  iov[used].iov_len = sizeof(frame);
  ++used;
  for (const IoSlice& s : slices) {
    if (s.size == 0) continue;
    if (used == kIovBatch + 1) {
      Status batch = sendmsg_all(fd_, iov, used, send_deadline_ms_);
      if (batch.code() == ErrorCode::kTimeout) close();
      XMIT_RETURN_IF_ERROR(batch);
      used = 0;
    }
    iov[used].iov_base = const_cast<void*>(s.data);
    iov[used].iov_len = s.size;
    ++used;
  }
  if (used > 0) {
    Status batch = sendmsg_all(fd_, iov, used, send_deadline_ms_);
    if (batch.code() == ErrorCode::kTimeout) close();
    XMIT_RETURN_IF_ERROR(batch);
  }
  ++sent_;
  bytes_sent_ += static_cast<std::size_t>(total) + sizeof(frame);
  return Status::ok();
}

Status Channel::send_some(std::span<const IoSlice> slices,
                          std::size_t& cursor) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  std::uint64_t total = 0;
  for (const IoSlice& s : slices) total += s.size;
  if (total > kMaxFrameBytes)
    return make_error(ErrorCode::kInvalidArgument, "message too large");
  if (failure_ != InjectedFailure::kNone && cursor == 0) {
    // Armed channels route through the blocking seam so injected byte
    // budgets stay exact (test-only path).
    XMIT_RETURN_IF_ERROR(send_gather(slices));
    cursor = static_cast<std::size_t>(total) + 4;
    return Status::ok();
  }
  std::uint8_t header[4];
  store_with_order<std::uint32_t>(header, static_cast<std::uint32_t>(total),
                                  ByteOrder::kLittle);
  const std::size_t wire = static_cast<std::size_t>(total) + sizeof(header);
  constexpr std::size_t kIovBatch = 64;
  while (cursor < wire) {
    // Gather what is left past the cursor, a batch of slices at a time.
    struct iovec iov[kIovBatch];
    std::size_t used = 0;
    std::size_t skip = cursor;
    const auto add = [&](const void* data, std::size_t size) {
      if (skip >= size) {
        skip -= size;
        return;
      }
      iov[used].iov_base = const_cast<std::uint8_t*>(
          static_cast<const std::uint8_t*>(data) + skip);
      iov[used].iov_len = size - skip;
      ++used;
      skip = 0;
    };
    add(header, sizeof(header));
    for (const IoSlice& s : slices) {
      if (used == kIovBatch) break;
      add(s.data, s.size);
    }
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = used;
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return make_error(ErrorCode::kUnavailable, "channel send would block");
    if (n <= 0)
      return make_error(ErrorCode::kIoError,
                        std::string("channel send failed: ") +
                            std::strerror(errno));
    cursor += static_cast<std::size_t>(n);
  }
  ++sent_;
  bytes_sent_ += wire;
  return Status::ok();
}

bool Channel::poll_writable(int timeout_ms) {
  if (fd_ < 0) return false;
  struct pollfd pfd = {fd_, POLLOUT, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

Result<std::size_t> Channel::recv_some(std::span<std::uint8_t> into) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  ssize_t n;
  do {
    n = ::recv(fd_, into.data(), into.size(), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
    return make_error(ErrorCode::kIoError, "channel recv failed");
  }
  if (n == 0) return make_error(ErrorCode::kNotFound, "end of stream");
  return static_cast<std::size_t>(n);
}

bool Channel::poll_readable(int timeout_ms) {
  if (fd_ < 0) return false;
  struct pollfd pfd = {fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

Result<std::vector<std::uint8_t>> Channel::receive(int timeout_ms) {
  std::vector<std::uint8_t> message;
  XMIT_RETURN_IF_ERROR(receive_into(message, timeout_ms));
  return message;
}

Status Channel::receive_into(std::vector<std::uint8_t>& out, int timeout_ms) {
  out.clear();
  if (fd_ < 0) return Status(ErrorCode::kIoError, "channel is closed");
  // Once a frame has begun, any failure leaves the stream unframeable.
  const auto mid_frame = [this](const Status& why) {
    if (why.code() == ErrorCode::kTimeout) {
      close();
      return make_error(ErrorCode::kIoError,
                        "timed out mid-frame; stream unframeable");
    }
    if (why.code() == ErrorCode::kNotFound)
      return make_error(ErrorCode::kIoError, "peer closed mid-frame");
    return why;
  };
  std::uint8_t frame[4];
  std::size_t got = 0;
  Status header = recv_exact(fd_, frame, sizeof(frame), timeout_ms, got);
  if (!header.is_ok()) return got == 0 ? header : mid_frame(header);
  std::uint32_t length = load_with_order<std::uint32_t>(frame, ByteOrder::kLittle);
  if (length > kMaxFrameBytes)
    return Status(ErrorCode::kParseError, "frame length is implausible");
  out.resize(length);
  if (length > 0) {
    Status body = recv_exact(fd_, out.data(), length, timeout_ms, got);
    if (!body.is_ok()) return mid_frame(body);
  }
  return Status::ok();
}

ChannelListener::~ChannelListener() {
  if (fd_ >= 0) ::close(fd_);
}

ChannelListener::ChannelListener(ChannelListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

ChannelListener& ChannelListener::operator=(ChannelListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<ChannelListener> ChannelListener::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status(ErrorCode::kIoError, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "bind failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ChannelListener(fd, ntohs(addr.sin_port));
}

Result<Channel> ChannelListener::accept(int timeout_ms) {
  struct pollfd pfd = {fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) return Status(ErrorCode::kTimeout, "accept timeout");
  if (ready < 0) return Status(ErrorCode::kIoError, "accept poll failed");
  int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return Status(ErrorCode::kIoError, "accept failed");
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Channel(client);
}

}  // namespace xmit::net

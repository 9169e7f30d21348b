#include "net/channel.hpp"

#include <arpa/inet.h>
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
#include <limits>
#include <utility>

#include "common/endian.hpp"

namespace xmit::net {
namespace {

constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

}  // namespace

Channel::~Channel() { close(); }

Channel::Channel(Channel&& other) noexcept { *this = std::move(other); }

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    sent_ = other.sent_;
    bytes_sent_ = other.bytes_sent_;
    send_deadline_ms_ = other.send_deadline_ms_;
    failure_ = other.failure_;
    failure_budget_ = other.failure_budget_;
    in_buf_ = std::move(other.in_buf_);
    in_pos_ = std::exchange(other.in_pos_, 0);
    in_end_ = std::exchange(other.in_end_, 0);
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
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Channel(fd);
}

Status Channel::send(std::span<const std::uint8_t> message) {
  const IoSlice slice = {message.data(), message.size()};
  return send_gather(std::span<const IoSlice>(&slice, 1));
}

Status Channel::send_gather(std::span<const IoSlice> slices) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t cursor = 0;
  for (;;) {
    Status sent = send_some(slices, cursor);
    if (sent.code() != ErrorCode::kUnavailable) return sent;
    int wait = -1;
    if (send_deadline_ms_ >= 0) {
      const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      wait = static_cast<int>(std::max<long long>(send_deadline_ms_ - spent, 0));
      if (wait == 0) {
        // A partial frame may be on the wire: the stream cannot be
        // re-synchronized, so the transport is dead.
        close();
        return make_error(ErrorCode::kTimeout,
                          "channel send deadline elapsed (peer not reading)");
      }
    }
    (void)poll_writable(wait);
  }
}

Status Channel::send_some(std::span<const IoSlice> slices,
                          std::size_t& cursor) {
  if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
  std::uint64_t total = 0;
  for (const IoSlice& s : slices) total += s.size;
  if (total > kMaxFrameBytes)
    return make_error(ErrorCode::kInvalidArgument, "message too large");
  std::uint8_t header[kFrameHeaderBytes];
  store_with_order<std::uint32_t>(header, static_cast<std::uint32_t>(total),
                                  ByteOrder::kLittle);
  const std::size_t wire = static_cast<std::size_t>(total) + sizeof(header);
  constexpr std::size_t kIovBatch = 64;
  for (;;) {
    if (failure_ != InjectedFailure::kNone && failure_budget_ == 0)
      return fail_injected();
    if (cursor == wire) break;
    // Gather what is left past the cursor, a batch of slices at a time,
    // capped at an armed failure's remaining byte budget.
    std::size_t cap = failure_ != InjectedFailure::kNone
                          ? failure_budget_
                          : std::numeric_limits<std::size_t>::max();
    struct iovec iov[kIovBatch];
    std::size_t used = 0;
    std::size_t skip = cursor;
    const auto add = [&](const void* data, std::size_t size) {
      if (skip >= size) {
        skip -= size;
        return;
      }
      const std::size_t take = std::min(size - skip, cap);
      if (used == kIovBatch || take == 0) return;
      iov[used].iov_base = const_cast<std::uint8_t*>(
          static_cast<const std::uint8_t*>(data) + skip);
      iov[used].iov_len = take;
      ++used;
      cap -= take;
      skip = 0;
    };
    add(header, sizeof(header));
    for (const IoSlice& s : slices) add(s.data, s.size);
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = used;
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return Status(ErrorCode::kUnavailable, {});
    if (n <= 0)
      return make_error(ErrorCode::kIoError,
                        std::string("channel send failed: ") +
                            std::strerror(errno));
    cursor += static_cast<std::size_t>(n);
    if (failure_ != InjectedFailure::kNone)
      failure_budget_ -= static_cast<std::size_t>(n);
  }
  ++sent_;
  bytes_sent_ += wire;
  return Status::ok();
}

Status Channel::fail_injected() {
  // The budget is spent: the prefix it allowed is on the wire. For a kill
  // it drains to the peer before EOF; for a reset SO_LINGER{1,0} makes
  // close() abortive.
  if (failure_ == InjectedFailure::kResetAfterBytes) {
    struct linger lg = {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  failure_ = InjectedFailure::kNone;
  close();
  return make_error(ErrorCode::kIoError,
                    "injected connection kill/reset mid-stream");
}

bool Channel::poll_writable(int timeout_ms) {
  if (fd_ < 0) return false;
  struct pollfd pfd = {fd_, POLLOUT, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

bool Channel::poll_readable(int timeout_ms) {
  if (fd_ < 0) return false;
  struct pollfd pfd = {fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

Status Channel::try_receive(std::vector<std::uint8_t>& out,
                            std::size_t max_bytes) {
  constexpr std::size_t kMinRead = 16 * 1024;
  constexpr std::size_t kInitialBytes = 64 * 1024;
  for (;;) {
    const std::size_t avail = in_end_ - in_pos_;
    if (avail >= kFrameHeaderBytes) {
      const std::uint8_t* head = in_buf_.data() + in_pos_;
      const std::uint32_t length =
          load_with_order<std::uint32_t>(head, ByteOrder::kLittle);
      if (length > max_bytes)
        return make_error(ErrorCode::kResourceExhausted,
                          "frame exceeds the receive size limit");
      if (avail - kFrameHeaderBytes >= length) {
        out.assign(head + kFrameHeaderBytes, head + kFrameHeaderBytes + length);
        in_pos_ += kFrameHeaderBytes + length;
        if (in_pos_ == in_end_) in_pos_ = in_end_ = 0;
        return Status::ok();
      }
    }
    if (fd_ < 0) return make_error(ErrorCode::kIoError, "channel is closed");
    // Room for a useful read: slide the partial frame to the front, then
    // double. The buffer grows with bytes that arrived, never with what a
    // header claims, and never shrinks, so steady-state reads allocate
    // nothing.
    if (in_buf_.size() - in_end_ < kMinRead) {
      if (in_pos_ > 0) {
        std::memmove(in_buf_.data(), in_buf_.data() + in_pos_, avail);
        in_pos_ = 0;
        in_end_ = avail;
      }
      if (in_buf_.size() - in_end_ < kMinRead)
        in_buf_.resize(std::max(kInitialBytes, 2 * in_buf_.size()));
    }
    const ssize_t n = ::recv(fd_, in_buf_.data() + in_end_,
                             in_buf_.size() - in_end_, MSG_DONTWAIT);
    if (n > 0) {
      in_end_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0)
      return avail == 0 ? make_error(ErrorCode::kNotFound, "end of stream")
                        : make_error(ErrorCode::kIoError,
                                     "peer closed mid-frame");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Status(ErrorCode::kUnavailable, {});
    return make_error(ErrorCode::kIoError, "channel recv failed");
  }
}

Result<std::vector<std::uint8_t>> Channel::receive(int timeout_ms) {
  std::vector<std::uint8_t> message;
  XMIT_RETURN_IF_ERROR(receive_into(message, timeout_ms));
  return message;
}

Status Channel::receive_into(std::vector<std::uint8_t>& out, int timeout_ms) {
  out.clear();
  for (;;) {
    Status got = try_receive(out, kMaxFrameBytes);
    if (got.code() != ErrorCode::kUnavailable) return got;
    if (poll_readable(timeout_ms)) continue;
    if (in_end_ == in_pos_)
      return make_error(ErrorCode::kTimeout, "channel receive timeout");
    // Part of a frame is consumed: the stream can no longer be re-framed.
    close();
    return make_error(ErrorCode::kIoError,
                      "timed out mid-frame; stream unframeable");
  }
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

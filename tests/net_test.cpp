// Discovery substrate tests: URLs, the HTTP server/client pair, scheme
// dispatch, and the framed message channel.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "common/endian.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/faults.hpp"
#include "net/fetch.hpp"
#include "net/http.hpp"
#include "net/url.hpp"

namespace xmit::net {
namespace {

TEST(Url, ParsesHttpForms) {
  auto url = parse_url("http://example.com/path/doc.xsd").value();
  EXPECT_EQ(url.scheme, "http");
  EXPECT_EQ(url.host, "example.com");
  EXPECT_EQ(url.port, 80);
  EXPECT_EQ(url.path, "/path/doc.xsd");

  url = parse_url("http://127.0.0.1:8080/x").value();
  EXPECT_EQ(url.host, "127.0.0.1");
  EXPECT_EQ(url.port, 8080);

  url = parse_url("http://host:90").value();
  EXPECT_EQ(url.path, "/");
}

TEST(Url, ParsesFileForm) {
  auto url = parse_url("file:///tmp/doc.xsd").value();
  EXPECT_EQ(url.scheme, "file");
  EXPECT_EQ(url.path, "/tmp/doc.xsd");
}

TEST(Url, RoundTripsToString) {
  for (const char* text :
       {"http://h/p", "http://h:99/p", "file:///a/b"}) {
    auto url = parse_url(text).value();
    EXPECT_EQ(parse_url(url.to_string()).value().to_string(),
              url.to_string());
  }
}

TEST(Url, Rejections) {
  EXPECT_FALSE(parse_url("no-scheme").is_ok());
  EXPECT_FALSE(parse_url("ftp://host/x").is_ok());
  EXPECT_FALSE(parse_url("http:///nohost").is_ok());
  EXPECT_FALSE(parse_url("http://host:0/x").is_ok());
  EXPECT_FALSE(parse_url("http://host:99999/x").is_ok());
  EXPECT_FALSE(parse_url("http://host:abc/x").is_ok());
  EXPECT_FALSE(parse_url("file://relative").is_ok());
}

TEST(Http, ServeAndGet) {
  auto server = HttpServer::start().value();
  server->put_document("/doc.xml", "<hello/>", "text/xml");

  auto response = HttpClient::get("127.0.0.1", server->port(), "/doc.xml").value();
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "<hello/>");
  EXPECT_EQ(response.content_type, "text/xml");
  EXPECT_EQ(server->request_count(), 1u);
}

TEST(Http, NotFound) {
  auto server = HttpServer::start().value();
  auto response = HttpClient::get("127.0.0.1", server->port(), "/missing").value();
  EXPECT_EQ(response.status_code, 404);
}

TEST(Http, DocumentReplacement) {
  auto server = HttpServer::start().value();
  server->put_document("/d", "v1");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().body, "v1");
  server->put_document("/d", "v2");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().body, "v2");
  server->remove_document("/d");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().status_code,
            404);
}

TEST(Http, LargeBody) {
  auto server = HttpServer::start().value();
  std::string big(1 << 20, 'x');
  server->put_document("/big", big);
  auto response = HttpClient::get("127.0.0.1", server->port(), "/big").value();
  EXPECT_EQ(response.body.size(), big.size());
}

TEST(Http, ConcurrentClients) {
  auto server = HttpServer::start().value();
  server->put_document("/d", "shared");
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto response = HttpClient::get("127.0.0.1", server->port(), "/d");
      if (response.is_ok() && response.value().body == "shared") ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8);
}

TEST(Http, ConnectToClosedPortFails) {
  auto server = HttpServer::start().value();
  std::uint16_t port = server->port();
  server->stop();
  auto response = HttpClient::get("127.0.0.1", port, "/x");
  EXPECT_FALSE(response.is_ok());
}

TEST(Fetch, HttpScheme) {
  auto server = HttpServer::start().value();
  server->put_document("/formats/a.xsd", "<schema/>");
  auto body = fetch(server->url_for("/formats/a.xsd"));
  ASSERT_TRUE(body.is_ok()) << body.status().to_string();
  EXPECT_EQ(body.value(), "<schema/>");

  auto missing = fetch(server->url_for("/nope"));
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(Fetch, FileScheme) {
  std::string path = ::testing::TempDir() + "xmit_fetch_test.txt";
  ASSERT_TRUE(write_file(path, "file contents").is_ok());
  auto body = fetch("file://" + path);
  ASSERT_TRUE(body.is_ok());
  EXPECT_EQ(body.value(), "file contents");
  std::remove(path.c_str());
  EXPECT_FALSE(fetch("file://" + path).is_ok());
}

TEST(Channel, PipeSendReceive) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::uint8_t> message = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send(message).is_ok());
  auto received = b.receive().value();
  EXPECT_EQ(received, message);
  EXPECT_EQ(a.messages_sent(), 1u);
}

TEST(Channel, EmptyMessage) {
  auto [a, b] = Channel::pipe().value();
  ASSERT_TRUE(a.send(std::vector<std::uint8_t>{}).is_ok());
  EXPECT_TRUE(b.receive().value().empty());
}

TEST(Channel, ManyMessagesInOrder) {
  auto [a, b] = Channel::pipe().value();
  for (std::uint8_t i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> m(i + 1, i);
    ASSERT_TRUE(a.send(m).is_ok());
  }
  for (std::uint8_t i = 0; i < 50; ++i) {
    auto m = b.receive().value();
    ASSERT_EQ(m.size(), static_cast<std::size_t>(i + 1));
    EXPECT_EQ(m[0], i);
  }
}

TEST(Channel, CleanEofIsNotFound) {
  auto [a, b] = Channel::pipe().value();
  a.close();
  auto result = b.receive(200);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kNotFound);
}

TEST(Channel, ReceiveTimeout) {
  auto [a, b] = Channel::pipe().value();
  auto result = b.receive(50);
  EXPECT_FALSE(result.is_ok());
  // Timeout is its own code, no longer conflated with kIoError.
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
}

// Once any byte of a frame is consumed, the frame must complete: a
// timeout past that point leaves the stream unframeable, so the channel
// closes and reports kIoError, like a blown send deadline.
TEST(Channel, TimeoutMidFrameClosesTheChannel) {
  auto listener = ChannelListener::listen().value();
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto channel = listener.accept().value();

  // Nothing consumed: an ordinary timeout, and the channel stays usable.
  std::vector<std::uint8_t> out;
  EXPECT_EQ(channel.receive_into(out, 20).code(), ErrorCode::kTimeout);
  EXPECT_TRUE(channel.is_open());

  // The header of a 100-byte frame and 10 bytes of its body, then silence.
  std::uint8_t partial[14] = {100, 0, 0, 0};
  ASSERT_EQ(::send(raw, partial, sizeof(partial), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(partial)));
  Status mid = channel.receive_into(out, 50);
  EXPECT_EQ(mid.code(), ErrorCode::kIoError) << mid.to_string();
  EXPECT_FALSE(channel.is_open());
  ::close(raw);
}

// A raw TCP client of `listener`, for peers that write bytes no Channel
// would: hostile prefixes, coalesced frames, one byte per send.
int connect_raw(const ChannelListener& listener) {
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(raw);
    return -1;
  }
  return raw;
}

void append_frame(std::vector<std::uint8_t>& wire, std::size_t length,
                  std::uint8_t fill) {
  std::uint8_t header[kFrameHeaderBytes];
  store_with_order<std::uint32_t>(header, static_cast<std::uint32_t>(length),
                                  ByteOrder::kLittle);
  wire.insert(wire.end(), header, header + sizeof(header));
  wire.insert(wire.end(), length, fill);
}

long peak_rss_kib() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A length prefix is a claim, not an allocation: a peer that announces a
// 256 MiB frame, sends 10 bytes of it and hangs up costs the reader what
// arrived, not what was claimed.
TEST(Channel, HostileLengthPrefixDoesNotPreallocate) {
  auto listener = ChannelListener::listen().value();
  const int raw = connect_raw(listener);
  ASSERT_GE(raw, 0);
  auto channel = listener.accept().value();
  const long before = peak_rss_kib();

  std::uint8_t claim[kFrameHeaderBytes + 10] = {};
  store_with_order<std::uint32_t>(claim, 256u << 20, ByteOrder::kLittle);
  ASSERT_EQ(::send(raw, claim, sizeof(claim), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(claim)));
  ::close(raw);

  std::vector<std::uint8_t> out;
  Status got = channel.receive_into(out, 2000);
  EXPECT_EQ(got.code(), ErrorCode::kIoError) << got.to_string();
  EXPECT_LT(peak_rss_kib() - before, 32L * 1024) << "peak RSS grew (KiB)";
}

TEST(Channel, OversizedPrefixIsResourceExhausted) {
  auto listener = ChannelListener::listen().value();
  const int raw = connect_raw(listener);
  ASSERT_GE(raw, 0);
  auto channel = listener.accept().value();
  const std::uint8_t header[kFrameHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(raw, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));
  std::vector<std::uint8_t> out;
  EXPECT_EQ(channel.receive_into(out, 2000).code(),
            ErrorCode::kResourceExhausted);
  ::close(raw);
}

// The assembler reads ahead. Frames that arrived in one segment come out
// one per call, in order, and a frame already buffered returns without
// waiting on the socket (a zero timeout would expose a poll first). A
// frame larger than the initial buffer, trickling in a byte per send,
// grows the buffer and arrives intact.
TEST(Channel, ReadAheadDeliversCoalescedAndTricklingFrames) {
  auto listener = ChannelListener::listen().value();
  const int raw = connect_raw(listener);
  ASSERT_GE(raw, 0);
  auto channel = listener.accept().value();

  std::vector<std::uint8_t> coalesced;
  append_frame(coalesced, 3, 1);
  append_frame(coalesced, 0, 0);
  append_frame(coalesced, 5, 3);
  ASSERT_EQ(::send(raw, coalesced.data(), coalesced.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(coalesced.size()));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(channel.receive_into(out, 2000).is_ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(3, 1));
  ASSERT_TRUE(channel.receive_into(out, 0).is_ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(channel.receive_into(out, 0).is_ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(5, 3));
  EXPECT_EQ(channel.receive_into(out, 0).code(), ErrorCode::kTimeout);

  constexpr std::size_t kBig = 200 * 1000;
  std::vector<std::uint8_t> big;
  append_frame(big, kBig, 0);
  for (std::size_t i = 0; i < kBig; ++i)
    big[kFrameHeaderBytes + i] = static_cast<std::uint8_t>(i * 7);
  std::thread trickle([&] {
    for (const std::uint8_t byte : big)
      if (::send(raw, &byte, 1, MSG_NOSIGNAL) != 1) return;
  });
  Status got = channel.receive_into(out, 5000);
  trickle.join();
  ASSERT_TRUE(got.is_ok()) << got.to_string();
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         big.begin() + kFrameHeaderBytes, big.end()));
  EXPECT_EQ(out.size(), kBig);
  ::close(raw);
}

// StallingReader counts the wire bytes of the frames it consumed, not the
// bytes its channel read ahead: it parks after exactly the frames that
// cover its budget, and the rest stay buffered, in order.
TEST(Channel, StallingReaderCountsConsumedFramesNotReadAhead) {
  auto [a, b] = Channel::pipe().value();
  for (std::uint8_t i = 0; i < 5; ++i)
    ASSERT_TRUE(a.send(std::vector<std::uint8_t>(96, i)).is_ok());
  StallingReader reader(std::move(b));
  auto drained =
      reader.consume_then_stall(FaultAction::stall_reads_after(250), 2000);
  ASSERT_TRUE(drained.is_ok()) << drained.status().to_string();
  EXPECT_EQ(drained.value(), 3u);
  EXPECT_EQ(reader.bytes_consumed(), 3 * (96 + kFrameHeaderBytes));
  std::vector<std::uint8_t> out;
  for (std::uint8_t i = 3; i < 5; ++i) {
    ASSERT_TRUE(reader.channel().receive_into(out, 0).is_ok());
    EXPECT_EQ(out, std::vector<std::uint8_t>(96, i));
  }
}

TEST(Channel, AcceptTimeout) {
  auto listener = ChannelListener::listen().value();
  auto result = listener.accept(50);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
}

TEST(Channel, TcpListenerAcceptConnect) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect(listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());

  std::vector<std::uint8_t> ping = {9, 9, 9};
  ASSERT_TRUE(client.send(ping).is_ok());
  EXPECT_EQ(served.receive().value(), ping);
  ASSERT_TRUE(served.send(ping).is_ok());
  EXPECT_EQ(client.receive().value(), ping);
}

TEST(Channel, ConnectByHostname) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect("localhost", listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());
  std::vector<std::uint8_t> ping = {1, 2, 3};
  ASSERT_TRUE(client.send(ping).is_ok());
  EXPECT_EQ(served.receive().value(), ping);
}

TEST(Channel, ConnectUnresolvableHostIsNotFound) {
  auto connected =
      Channel::connect("no-such-host.invalid.xmit.test", 1, 200);
  ASSERT_FALSE(connected.is_ok());
  EXPECT_EQ(connected.code(), ErrorCode::kNotFound);
}

TEST(Channel, ArmedKillDropsConnectionAtExactByte) {
  auto [a, b] = Channel::pipe().value();
  // Frame = 4-byte length header + payload. Allow one full frame (9
  // bytes) through, then die 3 bytes into the second frame's header.
  a.arm_failure(InjectedFailure::kKillAfterBytes, 12);
  std::vector<std::uint8_t> msg = {7, 7, 7, 7, 7};
  ASSERT_TRUE(a.send(msg).is_ok());
  auto second = a.send(msg);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.code(), ErrorCode::kIoError);
  EXPECT_FALSE(a.is_open());  // the injected fault closes the channel

  // Bytes written before the budget survive: the first frame is intact,
  // the second is a truncated header = kIoError mid-frame for the reader.
  EXPECT_EQ(b.receive(500).value(), msg);
  auto truncated = b.receive(500);
  ASSERT_FALSE(truncated.is_ok());
  EXPECT_EQ(truncated.code(), ErrorCode::kIoError);
}

TEST(Channel, ArmedResetAbortsTcpConnection) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect(listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());

  client.arm_failure(InjectedFailure::kResetAfterBytes, 0);
  std::vector<std::uint8_t> msg = {5};
  auto sent = client.send(msg);
  ASSERT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.code(), ErrorCode::kIoError);
  auto received = served.receive(500);
  EXPECT_FALSE(received.is_ok());  // RST or bare EOF, never a frame
}

TEST(Endpoint, TcpDialReachesListener) {
  auto listener = ChannelListener::listen().value();
  Endpoint endpoint = Endpoint::tcp("127.0.0.1", listener.port());
  ASSERT_TRUE(endpoint.can_dial());
  Channel client;
  std::thread dialer([&] {
    auto dialed = endpoint.dial();
    if (dialed.is_ok()) client = std::move(dialed).value();
  });
  auto served = listener.accept().value();
  dialer.join();
  ASSERT_TRUE(client.is_open());
  std::vector<std::uint8_t> ping = {4, 2};
  ASSERT_TRUE(served.send(ping).is_ok());
  EXPECT_EQ(client.receive().value(), ping);
}

TEST(Endpoint, CustomDialRetriesTransientFailures) {
  int attempts = 0;
  Endpoint endpoint = Endpoint::custom("flaky", [&]() -> Result<Channel> {
    if (++attempts < 3) return make_error(ErrorCode::kIoError, "warming up");
    auto pipe = Channel::pipe();
    if (!pipe.is_ok()) return pipe.status();
    return std::move(pipe.value().first);
  });
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  RetryStats stats;
  auto dialed = endpoint.dial(policy, &stats);
  ASSERT_TRUE(dialed.is_ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(stats.attempts, 3);
}

TEST(Endpoint, DefaultEndpointCannotDial) {
  Endpoint endpoint;
  EXPECT_FALSE(endpoint.can_dial());
  auto dialed = endpoint.dial();
  ASSERT_FALSE(dialed.is_ok());
  EXPECT_EQ(dialed.code(), ErrorCode::kUnsupported);
}

TEST(Channel, LargeMessage) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::uint8_t> big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);
  std::thread sender([&] { (void)a.send(big); });
  auto received = b.receive(10000).value();
  sender.join();
  EXPECT_EQ(received, big);
}

}  // namespace
}  // namespace xmit::net

// Batched discovery (DESIGN.md §5k): the XMITSET1 envelope, the
// publisher's set endpoint, the resolver's single-round-trip batch path,
// and Xmit::load_set — including every way a hostile or half-dead server
// can lie about a set (truncation, duplicate ids, lying counts, body
// prefixes with an honest Content-Length).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/faults.hpp"
#include "net/http.hpp"
#include "pbio/format_wire.hpp"
#include "pbio/registry.hpp"
#include "xmit/format_service.hpp"
#include "xmit/format_set.hpp"
#include "xmit/registry_stats.hpp"
#include "xmit/xmit.hpp"

namespace xmit {
namespace {

using toolkit::SetEntry;
using toolkit::SetEntryKind;

std::vector<std::uint8_t> text_bytes(std::string_view text) {
  return {text.begin(), text.end()};
}

constexpr const char* kCellSchema =
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
    "<xsd:complexType name=\"Cell\"><xsd:sequence>"
    "<xsd:element name=\"row\" type=\"xsd:int\"/>"
    "<xsd:element name=\"value\" type=\"xsd:double\"/>"
    "</xsd:sequence></xsd:complexType></xsd:schema>";

constexpr const char* kProbeSchema =
    "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
    "<xsd:complexType name=\"Probe\"><xsd:sequence>"
    "<xsd:element name=\"id\" type=\"xsd:int\"/>"
    "</xsd:sequence></xsd:complexType></xsd:schema>";

pbio::FormatPtr make_format(pbio::FormatRegistry& registry,
                            const std::string& name) {
  auto format = registry.register_format(
      name,
      {{"id", "integer", 4, 0}, {"value", "float", 8, 8}}, 16);
  EXPECT_TRUE(format.is_ok()) << format.status().to_string();
  return format.value();
}

// --- envelope --------------------------------------------------------------

TEST(FormatSet, RoundTripsMixedEntries) {
  pbio::FormatRegistry registry;
  auto format = make_format(registry, "Sample");
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "cell.xsd",
                     text_bytes(kCellSchema)});
  entries.push_back({SetEntryKind::kFormatBlob,
                     toolkit::FormatPublisher::id_to_path_component(
                         format->id()),
                     pbio::serialize_format(*format)});

  auto blob = toolkit::build_format_set(entries);
  auto parsed = toolkit::parse_format_set(blob);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].kind, SetEntryKind::kSchemaDocument);
  EXPECT_EQ(parsed.value()[0].name, "cell.xsd");
  EXPECT_EQ(parsed.value()[0].payload, entries[0].payload);
  EXPECT_EQ(parsed.value()[1].kind, SetEntryKind::kFormatBlob);
  EXPECT_EQ(parsed.value()[1].payload, entries[1].payload);
}

TEST(FormatSet, EmptySetRoundTrips) {
  auto blob = toolkit::build_format_set({});
  auto parsed = toolkit::parse_format_set(blob);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(FormatSet, RejectsBadMagic) {
  auto blob = toolkit::build_format_set({});
  blob[0] = 'Y';
  EXPECT_EQ(toolkit::parse_format_set(blob).code(), ErrorCode::kParseError);
}

TEST(FormatSet, RejectsTruncationMidEntry) {
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "cell.xsd",
                     text_bytes(kCellSchema)});
  auto blob = toolkit::build_format_set(entries);
  for (std::size_t keep : {blob.size() - 1, blob.size() / 2, std::size_t(13)}) {
    auto cut = std::vector<std::uint8_t>(blob.begin(), blob.begin() + keep);
    auto parsed = toolkit::parse_format_set(cut);
    EXPECT_EQ(parsed.code(), ErrorCode::kMalformedInput)
        << "keep=" << keep << ": " << parsed.status().to_string();
  }
}

TEST(FormatSet, RejectsDuplicateNames) {
  std::vector<SetEntry> entries(
      2, {SetEntryKind::kSchemaDocument, "cell.xsd", text_bytes(kCellSchema)});
  auto parsed = toolkit::parse_format_set(toolkit::build_format_set(entries));
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.code(), ErrorCode::kMalformedInput);
  EXPECT_NE(parsed.status().to_string().find("duplicate"), std::string::npos);
}

TEST(FormatSet, RejectsLyingCount) {
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "a.xsd",
                     text_bytes(kProbeSchema)});
  auto blob = toolkit::build_format_set(entries);
  // Count field is a u32 LE at offset 8; claim 4000 entries.
  blob[8] = 0xA0;
  blob[9] = 0x0F;
  auto parsed = toolkit::parse_format_set(blob);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.code(), ErrorCode::kMalformedInput);

  // And the other direction: fewer declared entries than bytes present.
  auto trailing = toolkit::build_format_set(entries);
  trailing.push_back(0x55);
  EXPECT_EQ(toolkit::parse_format_set(trailing).code(),
            ErrorCode::kMalformedInput);
}

TEST(FormatSet, RejectsUnknownKind) {
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "a.xsd",
                     text_bytes(kProbeSchema)});
  auto blob = toolkit::build_format_set(entries);
  blob[12] = 7;  // first entry's kind byte
  EXPECT_EQ(toolkit::parse_format_set(blob).code(),
            ErrorCode::kMalformedInput);
}

TEST(FormatSet, ChargesBudgets) {
  std::vector<SetEntry> entries;
  for (int i = 0; i < 8; ++i)
    entries.push_back({SetEntryKind::kSchemaDocument,
                       "s" + std::to_string(i) + ".xsd",
                       text_bytes(kProbeSchema)});
  auto blob = toolkit::build_format_set(entries);

  DecodeLimits tight = DecodeLimits::defaults();
  tight.max_elements = 4;
  EXPECT_EQ(toolkit::parse_format_set(blob, tight).code(),
            ErrorCode::kResourceExhausted);

  DecodeLimits tiny = DecodeLimits::defaults();
  tiny.max_message_bytes = 16;
  EXPECT_EQ(toolkit::parse_format_set(blob, tiny).code(),
            ErrorCode::kResourceExhausted);
}

// --- publisher + resolver --------------------------------------------------

class BatchResolveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = net::HttpServer::start();
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    server_ = std::move(server).value();
    publisher_ = std::make_unique<toolkit::FormatPublisher>(*server_);
    for (int i = 0; i < 4; ++i)
      ids_.push_back(
          make_format(source_, "Remote" + std::to_string(i))->id());
    publisher_->publish_all(source_);
    publisher_->serve_set_requests(source_);
  }

  toolkit::RemoteFormatResolver batched_resolver(
      pbio::FormatRegistry& local) {
    toolkit::RemoteFormatResolver resolver(publisher_->base_url(), local);
    resolver.set_batch_url(publisher_->set_url());
    return resolver;
  }

  pbio::FormatRegistry source_;
  std::unique_ptr<net::HttpServer> server_;
  std::unique_ptr<toolkit::FormatPublisher> publisher_;
  std::vector<pbio::FormatId> ids_;
};

TEST_F(BatchResolveTest, ResolvesWholeSetInOneFetch) {
  pbio::FormatRegistry local;
  auto resolver = batched_resolver(local);
  auto outcome = resolver.resolve_batch(ids_);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().resolved.size(), ids_.size());
  EXPECT_TRUE(outcome.value().missing.empty());
  EXPECT_TRUE(outcome.value().fetched);
  EXPECT_EQ(resolver.fetches_performed(), 1u);
  for (pbio::FormatId id : ids_) EXPECT_TRUE(local.by_id(id).is_ok());

  // Second batch: everything is local now, no round trip.
  auto again = resolver.resolve_batch(ids_);
  ASSERT_TRUE(again.is_ok());
  EXPECT_FALSE(again.value().fetched);
  EXPECT_EQ(resolver.fetches_performed(), 1u);
}

TEST_F(BatchResolveTest, PartialSetIsDataNotError) {
  pbio::FormatRegistry local;
  auto resolver = batched_resolver(local);
  std::vector<pbio::FormatId> asked = ids_;
  const pbio::FormatId unknown = ids_[0] ^ 0x5a5a5a5a5a5a5a5aULL;
  asked.push_back(unknown);
  auto outcome = resolver.resolve_batch(asked);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().resolved.size(), ids_.size());
  ASSERT_EQ(outcome.value().missing.size(), 1u);
  EXPECT_EQ(outcome.value().missing[0], unknown);
  // A partial set is an answer, not a server failure.
  EXPECT_EQ(resolver.breaker().state(), net::CircuitBreaker::State::kClosed);
}

TEST_F(BatchResolveTest, FallsBackToPerIdWithoutBatchUrl) {
  pbio::FormatRegistry local;
  toolkit::RemoteFormatResolver resolver(publisher_->base_url(), local);
  auto outcome = resolver.resolve_batch(ids_);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().resolved.size(), ids_.size());
  EXPECT_EQ(resolver.fetches_performed(), ids_.size());
}

TEST_F(BatchResolveTest, PartialBodyWithHonestLengthIsCaughtByParse) {
  // kPartialBody trims the body BEFORE Content-Length is computed: the
  // HTTP exchange itself succeeds and only the envelope parse can notice.
  server_->set_fault_hook(net::FaultPlan::as_hook(net::FaultPlan::sequence(
      {net::FaultAction::partial_body(20)})));
  pbio::FormatRegistry local;
  auto resolver = batched_resolver(local);
  auto outcome = resolver.resolve_batch(ids_);
  ASSERT_FALSE(outcome.is_ok());
  EXPECT_EQ(outcome.code(), ErrorCode::kMalformedInput)
      << outcome.status().to_string();
  EXPECT_EQ(local.size(), 0u);
}

TEST_F(BatchResolveTest, CorruptSetFeedsTheBreaker) {
  server_->set_fault_hook(net::FaultPlan::as_hook(net::FaultPlan::sequence(
      {net::FaultAction::corrupt(), net::FaultAction::corrupt(),
       net::FaultAction::corrupt(), net::FaultAction::corrupt(),
       net::FaultAction::corrupt()})));
  pbio::FormatRegistry local;
  toolkit::RemoteFormatResolver::Options options;
  options.retry = net::RetryPolicy::none();
  options.breaker.failure_threshold = 2;
  toolkit::RemoteFormatResolver resolver(publisher_->base_url(), local,
                                         options);
  resolver.set_batch_url(publisher_->set_url());
  for (int i = 0; i < 2; ++i)
    EXPECT_FALSE(resolver.resolve_batch(ids_).is_ok());
  // Breaker open: the next batch fails fast without touching the wire.
  const std::size_t fetches = resolver.fetches_performed();
  auto blocked = resolver.resolve_batch(ids_);
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(resolver.fetches_performed(), fetches);
}

// --- Xmit::load_set --------------------------------------------------------

class LoadSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = net::HttpServer::start();
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    server_ = std::move(server).value();

    std::vector<SetEntry> entries;
    entries.push_back({SetEntryKind::kSchemaDocument, "cell.xsd",
                       text_bytes(kCellSchema)});
    entries.push_back({SetEntryKind::kSchemaDocument, "probe.xsd",
                       text_bytes(kProbeSchema)});
    auto blob = toolkit::build_format_set(entries);
    server_->put_document("/sets/all", std::string(blob.begin(), blob.end()),
                          "application/x-xmit-format-set");
  }

  std::unique_ptr<net::HttpServer> server_;
  pbio::FormatRegistry registry_;
};

TEST_F(LoadSetTest, InstallsEveryEntryFromOneFetch) {
  toolkit::Xmit xmit(registry_);
  auto report = xmit.load_set(server_->url_for("/sets/all"));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().entries, 2u);
  EXPECT_EQ(report.value().documents_installed, 2u);
  EXPECT_TRUE(report.value().failures.empty());
  EXPECT_FALSE(report.value().served_stale);
  EXPECT_TRUE(xmit.bind("Cell").is_ok());
  EXPECT_TRUE(xmit.bind("Probe").is_ok());
}

// last_load_stats() after a set covers every installed entry: three
// documents defining 1, 1 and 2 types report 4 types, not the last
// document's 2.
TEST_F(LoadSetTest, StatsSumEveryInstalledEntry) {
  const char* pair_schema =
      "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
      "<xsd:complexType name=\"Left\"><xsd:sequence>"
      "<xsd:element name=\"a\" type=\"xsd:int\"/>"
      "</xsd:sequence></xsd:complexType>"
      "<xsd:complexType name=\"Right\"><xsd:sequence>"
      "<xsd:element name=\"b\" type=\"xsd:double\"/>"
      "</xsd:sequence></xsd:complexType></xsd:schema>";
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "cell.xsd",
                     text_bytes(kCellSchema)});
  entries.push_back({SetEntryKind::kSchemaDocument, "probe.xsd",
                     text_bytes(kProbeSchema)});
  entries.push_back(
      {SetEntryKind::kSchemaDocument, "pair.xsd", text_bytes(pair_schema)});
  auto blob = toolkit::build_format_set(entries);
  server_->put_document("/sets/three", std::string(blob.begin(), blob.end()));

  toolkit::Xmit xmit(registry_);
  auto report = xmit.load_set(server_->url_for("/sets/three"));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_EQ(report.value().documents_installed, 3u);
  const toolkit::LoadStats& stats = xmit.last_load_stats();
  EXPECT_EQ(stats.types_loaded, 4u);
  EXPECT_GT(stats.parse_ms + stats.translate_ms + stats.register_ms, 0.0);
}

TEST_F(LoadSetTest, BadEntryFailsAloneGoodEntriesInstall) {
  std::vector<SetEntry> entries;
  entries.push_back({SetEntryKind::kSchemaDocument, "good.xsd",
                     text_bytes(kCellSchema)});
  entries.push_back({SetEntryKind::kSchemaDocument, "bad.xsd",
                     text_bytes("<not a schema")});
  auto blob = toolkit::build_format_set(entries);
  server_->put_document("/sets/mixed", std::string(blob.begin(), blob.end()));

  toolkit::Xmit xmit(registry_);
  auto report = xmit.load_set(server_->url_for("/sets/mixed"));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().documents_installed, 1u);
  ASSERT_EQ(report.value().failures.size(), 1u);
  EXPECT_NE(report.value().failures[0].first.find("bad.xsd"),
            std::string::npos);
  EXPECT_TRUE(xmit.bind("Cell").is_ok());
}

TEST_F(LoadSetTest, GarbageSetIsAnError) {
  server_->put_document("/sets/garbage", "not a set at all");
  toolkit::Xmit xmit(registry_);
  EXPECT_FALSE(xmit.load_set(server_->url_for("/sets/garbage")).is_ok());
}

TEST_F(LoadSetTest, TransientFailureServesStaleSet) {
  toolkit::Xmit xmit(registry_);
  xmit.set_retry_policy(net::RetryPolicy::none());
  const std::string url = server_->url_for("/sets/all");
  ASSERT_TRUE(xmit.load_set(url).is_ok());

  server_->set_fault_hook(net::FaultPlan::as_hook(
      net::FaultPlan::random(1, 1.0, {net::FaultAction::http_error(500)})));
  auto report = xmit.load_set(url);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().served_stale);
  EXPECT_TRUE(xmit.degraded());
  EXPECT_GE(xmit.resilience_stats().stale_serves, 1u);

  // Server heals; refresh clears the degradation.
  server_->set_fault_hook(nullptr);
  auto refreshed = xmit.refresh();
  ASSERT_TRUE(refreshed.is_ok()) << refreshed.status().to_string();
  EXPECT_FALSE(xmit.degraded());
}

TEST_F(LoadSetTest, RefreshPicksUpChangedSet) {
  toolkit::Xmit xmit(registry_);
  ASSERT_TRUE(xmit.load_set(server_->url_for("/sets/all")).is_ok());
  EXPECT_FALSE(xmit.schema_for("Cell") == nullptr);

  // Republish the set with an evolved Cell schema (extra field).
  std::string evolved =
      "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
      "<xsd:complexType name=\"Cell\"><xsd:sequence>"
      "<xsd:element name=\"row\" type=\"xsd:int\"/>"
      "<xsd:element name=\"col\" type=\"xsd:int\"/>"
      "<xsd:element name=\"value\" type=\"xsd:double\"/>"
      "</xsd:sequence></xsd:complexType></xsd:schema>";
  std::vector<SetEntry> entries;
  entries.push_back(
      {SetEntryKind::kSchemaDocument, "cell.xsd", text_bytes(evolved)});
  auto blob = toolkit::build_format_set(entries);
  server_->put_document("/sets/all", std::string(blob.begin(), blob.end()));

  auto changed = xmit.refresh();
  ASSERT_TRUE(changed.is_ok()) << changed.status().to_string();
  EXPECT_TRUE(changed.value());
  auto token = xmit.bind("Cell");
  ASSERT_TRUE(token.is_ok());
  EXPECT_EQ(token.value().format->fields().size(), 3u);
}

// --- stats endpoint --------------------------------------------------------

TEST(RegistryStatsService, ServesLiveJson) {
  auto server = net::HttpServer::start();
  ASSERT_TRUE(server.is_ok());
  pbio::FormatRegistry registry;
  toolkit::RegistryStatsService stats(*server.value(), registry);
  LruCache<std::string, int> cache(CacheBudget::of(4, 0));
  stats.add_cache("demo", [&cache] { return cache.stats(); });

  make_format(registry, "StatsProbe");
  (void)cache.put("k", 1, 10);
  (void)cache.get("k");

  auto response = net::HttpClient::get("127.0.0.1", server.value()->port(),
                                       "/registry/stats");
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status_code, 200);
  EXPECT_EQ(response.value().content_type, "application/json");
  const std::string& body = response.value().body;
  EXPECT_NE(body.find("\"formats\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(body.find("\"demo\":{"), std::string::npos);
  EXPECT_NE(body.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(body.find("\"max_entries\":4"), std::string::npos);
}

}  // namespace
}  // namespace xmit

#include "world.hpp"

#include <sched.h>

namespace perfbench {

DocServer::DocServer() : cpu_(sched_getcpu() < 0 ? 0 : sched_getcpu()) {
  PinnedThread pin(cpu_);
  server_ = expect(xmit::net::HttpServer::start(0), "start HTTP server");
}

std::string DocServer::put(const std::string& path, std::string body,
                           const std::string& content_type) {
  // Served through a GET handler, so the bytes counted are the bytes each
  // request was actually answered with. The server copies the handler per
  // request, so the body is shared rather than captured by value.
  auto shared = std::make_shared<const std::string>(std::move(body));
  server_->set_get_handler(
      path, [this, shared, content_type](const std::string&) {
        body_bytes_ += shared->size();
        return xmit::net::HttpResponse{200, content_type, *shared};
      });
  return server_->url_for(path);
}

void End::load(const std::string& url, DiscoveryTally& tally) {
  expect_ok(xmit_.load(url), "load " + url);
  tally.fetch_ms += xmit_.last_load_stats().fetch_ms;
}

void End::load_set(const std::string& url, std::size_t documents,
                   DiscoveryTally& tally) {
  auto report = expect(xmit_.load_set(url), "load_set " + url);
  if (!report.failures.empty())
    fail("load_set entry " + report.failures.front().first + ": " +
         report.failures.front().second.to_string());
  check(report.documents_installed == documents,
        "load_set installed " + std::to_string(report.documents_installed) +
            " of " + std::to_string(documents) + " documents");
  tally.fetch_ms += xmit_.last_load_stats().fetch_ms;
}

void End::bind(const std::vector<std::string>& types, DiscoveryTally& tally) {
  const double start = now_s();
  for (const std::string& type : types)
    tokens_[type] = expect(xmit_.bind(type), "bind " + type);
  tally.bind_us += (now_s() - start) * 1e6;
  tally.types_bound += types.size();
}

const toolkit::BindingToken& End::token(const std::string& type) const {
  auto it = tokens_.find(type);
  if (it == tokens_.end()) fail("type " + type + " was never bound");
  return it->second;
}

}  // namespace perfbench

// The application ends a workload runs between: each end owns a format
// registry and an XMIT toolkit, discovers its schemas over loopback HTTP
// and binds the types it uses — the paper's discovery and binding steps.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/http.hpp"
#include "pbio/arch.hpp"
#include "pbio/registry.hpp"
#include "util.hpp"
#include "xmit/xmit.hpp"

namespace perfbench {

namespace pbio = xmit::pbio;
namespace toolkit = xmit::toolkit;

// One loopback HTTP server publishing every document a workload
// discovers, from an accept loop on a background thread.
class DocServer {
 public:
  // Starts the server thread on the caller's current CPU and keeps it
  // there: set-ups pin their own thread to cpu() too, so each HTTP
  // exchange hands off between two threads on one CPU instead of waking
  // an idle one, whose wake-up latency moves with outside load.
  DocServer();
  DocServer(const DocServer&) = delete;
  DocServer& operator=(const DocServer&) = delete;
  int cpu() const { return cpu_; }
  // Publishes `body` at `path`; returns its URL.
  std::string put(const std::string& path, std::string body,
                  const std::string& content_type = "text/xml");
  std::size_t requests() const { return server_->request_count(); }
  // Response body bytes answered so far, counted as each request is served.
  std::size_t body_bytes() const { return body_bytes_.load(); }

 private:
  int cpu_ = 0;
  std::atomic<std::size_t> body_bytes_{0};  // outlives server_'s thread
  std::unique_ptr<xmit::net::HttpServer> server_;
};

// Where one set-up's discovery time went, summed over ends.
struct DiscoveryTally {
  double fetch_ms = 0;          // LoadStats::fetch_ms
  double bind_us = 0;           // Xmit::bind, all types
  std::size_t types_bound = 0;
};

// One application end. Not movable: the toolkit holds its registry.
class End {
 public:
  explicit End(pbio::ArchInfo arch = pbio::ArchInfo::host())
      : xmit_(registry_, arch) {}
  End(const End&) = delete;
  End& operator=(const End&) = delete;

  // Xmit::load of one schema document.
  void load(const std::string& url, DiscoveryTally& tally);
  // Xmit::load_set of one XMITSET1 document; expects `documents` entries
  // to install cleanly.
  void load_set(const std::string& url, std::size_t documents,
                DiscoveryTally& tally);
  // Binds each type, keeping the tokens for encoders / receiver formats.
  void bind(const std::vector<std::string>& types, DiscoveryTally& tally);

  const toolkit::BindingToken& token(const std::string& type) const;
  pbio::FormatRegistry& registry() { return registry_; }
  toolkit::Xmit& xmit() { return xmit_; }

 private:
  pbio::FormatRegistry registry_;
  toolkit::Xmit xmit_;
  std::map<std::string, toolkit::BindingToken> tokens_;
};

}  // namespace perfbench

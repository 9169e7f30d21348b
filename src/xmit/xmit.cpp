#include "xmit/xmit.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "common/clock.hpp"
#include "net/fetch.hpp"
#include "pbio/format_wire.hpp"
#include "xmit/format_set.hpp"
#include "xsd/parse.hpp"

namespace xmit::toolkit {
namespace {

// FNV-1a: a stable cache file name for a URL, identical across runs.
std::string url_digest(const std::string& url) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : url) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

Xmit::Xmit(pbio::FormatRegistry& registry, pbio::ArchInfo target)
    : registry_(registry), target_(target) {}

std::string Xmit::cache_path_for(const std::string& url) const {
  return cache_dir_ + "/" + url_digest(url) + ".xsd";
}

std::string Xmit::set_cache_path_for(const std::string& url) const {
  return cache_dir_ + "/" + url_digest(url) + ".set";
}

void Xmit::mirror_to_cache(const std::string& path, std::string_view text) {
  if (cache_dir_.empty()) return;
  // Best-effort: a full disk must not fail the load that just succeeded.
  (void)net::write_file(path, text);
  enforce_disk_budget();
}

void Xmit::enforce_disk_budget() {
  if (cache_dir_.empty() || !disk_budget_.bounded()) return;

  // Mirrors of currently-loaded URLs and sets are pinned: deleting one
  // would silently cost this process its stale-if-error fallback.
  std::unordered_set<std::string> pinned;
  for (const auto& document : documents_)
    if (document.is_url) pinned.insert(cache_path_for(document.source));
  for (const auto& set : sets_) pinned.insert(set_cache_path_for(set.url));

  struct CachedFile {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uintmax_t size = 0;
  };
  std::vector<CachedFile> files;
  std::uintmax_t total_bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    CachedFile file{entry.path(), entry.last_write_time(ec),
                    entry.file_size(ec)};
    total_bytes += file.size;
    files.push_back(std::move(file));
  }
  std::sort(files.begin(), files.end(),
            [](const CachedFile& a, const CachedFile& b) {
              return a.mtime < b.mtime;  // oldest first
            });

  std::size_t count = files.size();
  for (const auto& file : files) {
    bool over_entries =
        disk_budget_.max_entries != 0 && count > disk_budget_.max_entries;
    bool over_bytes =
        disk_budget_.max_bytes != 0 && total_bytes > disk_budget_.max_bytes;
    if (!over_entries && !over_bytes) break;
    if (pinned.count(file.path.string()) != 0) continue;
    if (std::filesystem::remove(file.path, ec)) {
      --count;
      total_bytes -= file.size;
      ++disk_evictions_;
    }
  }
}

Result<std::string> Xmit::fetch_with_policy(const std::string& url,
                                            net::RetryStats* stats) {
  net::FetchOptions options;
  options.timeout_ms = fetch_timeout_ms_;
  options.retry = retry_policy_;
  options.stats = stats;
  return net::fetch(url, options);
}

Status Xmit::load(std::string_view url_view) {
  std::string url(url_view);
  Stopwatch fetch_watch;
  net::RetryStats retry_stats;
  auto text = fetch_with_policy(url, &retry_stats);
  double fetch_ms = fetch_watch.elapsed_ms();
  resilience_.fetch_retries += static_cast<std::size_t>(retry_stats.retries);

  if (text.is_ok()) {
    XMIT_RETURN_IF_ERROR(install(text.value(), url, /*is_url=*/true, fetch_ms));
    last_stats_.retries = retry_stats.retries;
    mirror_to_cache(cache_path_for(url), text.value());
    return Status::ok();
  }
  if (!net::is_transient(text.status())) return text.status();

  // Transient failure: fall back to the last-good copy — in memory if
  // this URL was loaded before, else the disk cache — and degrade.
  for (auto& document : documents_) {
    if (document.source != url) continue;
    document.stale = true;
    ++resilience_.stale_serves;
    last_stats_ = LoadStats{};
    last_stats_.fetch_ms = fetch_ms;
    last_stats_.retries = retry_stats.retries;
    last_stats_.served_stale = true;
    last_stats_.types_loaded = 0;
    return Status::ok();
  }
  if (!cache_dir_.empty()) {
    auto cached = net::read_file(cache_path_for(url));
    if (cached.is_ok()) {
      XMIT_RETURN_IF_ERROR(
          install(cached.value(), url, /*is_url=*/true, fetch_ms));
      documents_.back().stale = true;
      ++resilience_.disk_cache_hits;
      ++resilience_.stale_serves;
      last_stats_.retries = retry_stats.retries;
      last_stats_.served_stale = true;
      return Status::ok();
    }
  }
  return text.status();
}

Status Xmit::load_text(std::string_view xml_text, std::string source_name) {
  return install(xml_text, std::move(source_name), /*is_url=*/false, 0.0);
}

SetLoadReport Xmit::install_set_entries(const std::string& url,
                                        const std::string& blob) {
  SetLoadReport report;
  auto entries = parse_format_set(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()),
      limits_);
  if (!entries.is_ok()) {
    report.failures.emplace_back(url, entries.status());
    return report;
  }
  report.entries = entries.value().size();
  // The set's cost is every installed entry's parse, translate and
  // register work, not just the last one's.
  LoadStats total;
  for (const SetEntry& entry : entries.value()) {
    if (entry.kind == SetEntryKind::kSchemaDocument) {
      std::string_view text(
          reinterpret_cast<const char*>(entry.payload.data()),
          entry.payload.size());
      // Member documents are keyed "url#entry" and marked non-URL so the
      // per-document refresh loop skips them; the SET refresh covers them.
      auto installed = install(text, url + "#" + entry.name,
                               /*is_url=*/false, 0.0);
      if (installed.is_ok()) {
        ++report.documents_installed;
        total.parse_ms += last_stats_.parse_ms;
        total.translate_ms += last_stats_.translate_ms;
        total.register_ms += last_stats_.register_ms;
        total.types_loaded += last_stats_.types_loaded;
      } else {
        report.failures.emplace_back(entry.name, installed);
      }
    } else {
      auto format = pbio::deserialize_format(
          std::span<const std::uint8_t>(entry.payload));
      if (!format.is_ok()) {
        report.failures.emplace_back(entry.name, format.status());
        continue;
      }
      auto adopted = registry_.adopt(std::move(format).value());
      if (adopted.is_ok())
        ++report.formats_adopted;
      else
        report.failures.emplace_back(entry.name, adopted.status());
    }
  }
  last_stats_ = total;
  return report;
}

Result<SetLoadReport> Xmit::load_set(std::string_view url_view) {
  std::string url(url_view);
  Stopwatch fetch_watch;
  net::RetryStats retry_stats;
  auto blob = fetch_with_policy(url, &retry_stats);
  double fetch_ms = fetch_watch.elapsed_ms();
  resilience_.fetch_retries += static_cast<std::size_t>(retry_stats.retries);

  std::string text;
  bool stale = false;
  if (blob.is_ok()) {
    text = std::move(blob).value();
  } else if (net::is_transient(blob.status())) {
    // Stale-if-error, same ladder as load(): the in-memory copy of an
    // earlier load_set of this URL, then the disk mirror.
    const LoadedSet* held = nullptr;
    for (const auto& set : sets_)
      if (set.url == url) held = &set;
    if (held != nullptr) {
      text = held->blob;
    } else if (!cache_dir_.empty()) {
      auto cached = net::read_file(set_cache_path_for(url));
      if (!cached.is_ok()) return blob.status();
      text = std::move(cached).value();
      ++resilience_.disk_cache_hits;
    } else {
      return blob.status();
    }
    stale = true;
    ++resilience_.stale_serves;
  } else {
    return blob.status();
  }

  SetLoadReport report = install_set_entries(url, text);
  report.served_stale = stale;
  if (report.entries == 0 && !report.failures.empty())
    return report.failures.front().second;  // the set itself was garbage

  std::size_t set_index = sets_.size();
  for (std::size_t i = 0; i < sets_.size(); ++i)
    if (sets_[i].url == url) set_index = i;
  LoadedSet record{url, std::move(text), stale};
  if (set_index == sets_.size())
    sets_.push_back(std::move(record));
  else
    sets_[set_index] = std::move(record);

  if (!stale) mirror_to_cache(set_cache_path_for(url), sets_[set_index].blob);

  last_stats_.fetch_ms = fetch_ms;
  last_stats_.retries = retry_stats.retries;
  last_stats_.served_stale = stale;
  return report;
}

Status Xmit::install(std::string_view xml_text, std::string source,
                     bool is_url, double fetch_ms) {
  LoadStats stats;
  stats.fetch_ms = fetch_ms;

  Stopwatch parse_watch;
  XMIT_ASSIGN_OR_RETURN(auto schema, xsd::parse_schema_text(xml_text, limits_));
  stats.parse_ms = parse_watch.elapsed_ms();

  Stopwatch translate_watch;
  XMIT_ASSIGN_OR_RETURN(auto layouts, layout_schema(schema, target_));
  stats.translate_ms = translate_watch.elapsed_ms();

  if (lint_hook_) XMIT_RETURN_IF_ERROR(lint_hook_(schema, layouts, source));

  // Replace any earlier load from the same source.
  std::size_t doc_index = documents_.size();
  for (std::size_t i = 0; i < documents_.size(); ++i)
    if (documents_[i].source == source) doc_index = i;

  Stopwatch register_watch;
  std::vector<std::pair<std::string, pbio::FormatPtr>> registered;
  for (const auto& layout : layouts) {
    XMIT_ASSIGN_OR_RETURN(
        auto format, registry_.register_format(layout.name, layout.fields,
                                               layout.struct_size, target_));
    registered.emplace_back(layout.name, std::move(format));
  }
  stats.register_ms = register_watch.elapsed_ms();
  stats.types_loaded = registered.size();

  LoadedDocument document;
  document.source = std::move(source);
  document.is_url = is_url;
  document.text = std::string(xml_text);
  document.schema = std::move(schema);
  if (doc_index == documents_.size())
    documents_.push_back(std::move(document));
  else
    documents_[doc_index] = std::move(document);

  for (auto& [name, format] : registered) {
    type_index_[name] = doc_index;
    // Invalidate any cached binding so the next bind() serves the newly
    // registered format. A PINNED binding is left in place by design:
    // its holder (a live session) negotiated that exact format, and the
    // registry still serves the old id for in-flight peers.
    format_cache_.erase(name);
  }

  last_stats_ = stats;
  return Status::ok();
}

std::size_t Xmit::binding_bytes(const std::string& name,
                                const BindingToken& token) {
  // Estimate, not an audit: the dominant terms are the format's field
  // tables and the encoder program.
  std::size_t bytes = name.size() + sizeof(BindingToken);
  if (token.format) {
    bytes += sizeof(pbio::Format);
    bytes += token.format->fields().size() * sizeof(pbio::IOField);
    bytes += token.format->flat_fields().size() * sizeof(pbio::FlatField);
  }
  if (token.encoder) bytes += sizeof(pbio::Encoder);
  return bytes;
}

Result<BindingToken> Xmit::bind(std::string_view type_name) {
  std::string key(type_name);
  if (auto hit = format_cache_.get(key)) return *hit;

  auto it = type_index_.find(type_name);
  if (it == type_index_.end())
    return Status(ErrorCode::kNotFound,
                  "type '" + std::string(type_name) +
                      "' has not been loaded; call load() first");
  // Rebuild from the registry — it keeps every format whatever this
  // cache's budget, so eviction costs a lookup and an encoder build,
  // never correctness.
  XMIT_ASSIGN_OR_RETURN(auto format, registry_.by_name(type_name));
  BindingToken token;
  token.format = std::move(format);
  if (target_ == pbio::ArchInfo::host()) {
    XMIT_ASSIGN_OR_RETURN(auto encoder, pbio::Encoder::make(token.format));
    token.encoder = std::make_shared<const pbio::Encoder>(std::move(encoder));
  }
  std::size_t bytes = binding_bytes(key, token);
  return format_cache_.put(key, std::move(token), bytes);
}

Status Xmit::pin_type(std::string_view type_name) {
  std::string key(type_name);
  if (format_cache_.pin(key).is_ok()) return Status::ok();
  // Not resident (never built, or evicted): build it, then pin. bind()'s
  // put may come back uncached under a pinned-full budget, so fall
  // through to put_pinned for the typed kResourceExhausted.
  XMIT_ASSIGN_OR_RETURN(auto token, bind(type_name));
  if (format_cache_.pin(key).is_ok()) return Status::ok();
  std::size_t bytes = binding_bytes(key, token);
  return format_cache_.put_pinned(key, std::move(token), bytes);
}

void Xmit::unpin_type(std::string_view type_name) {
  format_cache_.unpin(std::string(type_name));
}

Result<bool> Xmit::refresh() {
  bool any_changed = false;
  // Snapshot sources first: install() mutates documents_.
  std::vector<std::pair<std::string, std::string>> to_check;  // source, old text
  for (const auto& document : documents_)
    if (document.is_url) to_check.emplace_back(document.source, document.text);

  for (auto& [source, old_text] : to_check) {
    Stopwatch fetch_watch;
    net::RetryStats retry_stats;
    auto text = fetch_with_policy(source, &retry_stats);
    resilience_.fetch_retries += static_cast<std::size_t>(retry_stats.retries);
    if (!text.is_ok()) {
      // Stale-if-error: a transiently unreachable publisher must not
      // take down a toolkit that already holds a good document.
      if (!net::is_transient(text.status())) return text.status();
      ++resilience_.refresh_failures;
      for (auto& document : documents_)
        if (document.source == source && !document.stale) {
          document.stale = true;
          ++resilience_.stale_serves;
        }
      continue;
    }
    if (text.value() == old_text) {
      // Unchanged, but a successful fetch ends any degradation.
      for (auto& document : documents_)
        if (document.source == source) document.stale = false;
      continue;
    }
    XMIT_RETURN_IF_ERROR(install(text.value(), source, /*is_url=*/true,
                                 fetch_watch.elapsed_ms()));
    mirror_to_cache(cache_path_for(source), text.value());
    any_changed = true;
  }

  // Sets refresh as units: one fetch re-checks every member document.
  std::vector<std::pair<std::string, std::string>> sets_to_check;
  for (const auto& set : sets_) sets_to_check.emplace_back(set.url, set.blob);
  for (auto& [url, old_blob] : sets_to_check) {
    net::RetryStats retry_stats;
    auto blob = fetch_with_policy(url, &retry_stats);
    resilience_.fetch_retries += static_cast<std::size_t>(retry_stats.retries);
    if (!blob.is_ok()) {
      if (!net::is_transient(blob.status())) return blob.status();
      ++resilience_.refresh_failures;
      for (auto& set : sets_)
        if (set.url == url && !set.stale) {
          set.stale = true;
          ++resilience_.stale_serves;
        }
      continue;
    }
    if (blob.value() == old_blob) {
      for (auto& set : sets_)
        if (set.url == url) set.stale = false;
      continue;
    }
    SetLoadReport report = install_set_entries(url, blob.value());
    (void)report;  // per-entry failures keep the old copies serving
    for (auto& set : sets_)
      if (set.url == url) {
        set.blob = blob.value();
        set.stale = false;
      }
    mirror_to_cache(set_cache_path_for(url), blob.value());
    any_changed = true;
  }
  return any_changed;
}

bool Xmit::degraded() const {
  for (const auto& document : documents_)
    if (document.stale) return true;
  for (const auto& set : sets_)
    if (set.stale) return true;
  return false;
}

std::vector<std::string> Xmit::loaded_types() const {
  std::vector<std::string> names;
  names.reserve(type_index_.size());
  for (const auto& [name, doc_index] : type_index_) names.push_back(name);
  return names;
}

const xsd::Schema* Xmit::schema_for(std::string_view type_name) const {
  auto it = type_index_.find(type_name);
  if (it == type_index_.end()) return nullptr;
  return &documents_[it->second].schema;
}

}  // namespace xmit::toolkit

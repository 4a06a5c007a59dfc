#include "pool/subplan_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace gpl {
namespace pool {

namespace {
/// How many least-recently-used entries eviction compares.
constexpr int kEvictionWindow = 4;

int64_t PagesFor(int64_t bytes) {
  return (bytes + SubplanCache::kPageBytes - 1) / SubplanCache::kPageBytes;
}
}  // namespace

SubplanCache::SubplanCache(const SubplanCacheOptions& options)
    : total_pages_(std::max<int64_t>(options.capacity_bytes, 0) / kPageBytes) {}

SubplanCache::~SubplanCache() = default;

SubplanCache::Acquisition SubplanCache::Acquire(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Entry& entry = it->second;
      ++entry.hits;
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, entry.lru_it);
      Acquisition acq;
      acq.hit = true;
      acq.payload = entry.payload;
      return acq;
    }
    auto fit = inflight_.find(key);
    if (fit == inflight_.end()) {
      inflight_.emplace(key, std::make_shared<InFlight>());
      ++stats_.misses;
      Acquisition acq;
      acq.owner = true;
      return acq;
    }
    // Another query is computing this key right now: attach to it instead of
    // recomputing the same segment. The record outlives its map slot
    // via the shared_ptr, so a publish after many waiters queued still
    // reaches all of them.
    std::shared_ptr<InFlight> rec = fit->second;
    cv_.wait(lock, [&rec] { return rec->done; });
    if (rec->published) {
      ++stats_.hits;
      ++stats_.attaches;
      Acquisition acq;
      acq.hit = true;
      acq.payload = rec->payload;
      return acq;
    }
    // The owner aborted; loop — this thread may now become the owner.
  }
}

void SubplanCache::Publish(const std::string& key, Payload payload,
                           int64_t bytes, double cost_ms) {
  GPL_CHECK(bytes >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = inflight_.find(key);
  GPL_CHECK(fit != inflight_.end());
  fit->second->done = true;
  fit->second->published = true;
  fit->second->payload = payload;
  inflight_.erase(fit);
  cv_.notify_all();

  if (entries_.count(key) > 0) return;  // benign re-publish race

  const int64_t pages = PagesFor(bytes);
  if (pages > total_pages_) {
    // Could never fit: evicting first would only flush the cache.
    ++stats_.rejected;
    return;
  }
  while (used_pages_ + pages > total_pages_) EvictOneLocked();
  used_pages_ += pages;

  Entry entry;
  entry.payload = std::move(payload);
  entry.bytes = bytes;
  entry.pages = pages;
  entry.cost_ms = cost_ms;
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  stats_.bytes += entry.bytes;
  ++stats_.entries;
  ++stats_.inserts;
  entries_.emplace(key, std::move(entry));
}

void SubplanCache::Abort(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = inflight_.find(key);
  GPL_CHECK(fit != inflight_.end());
  fit->second->done = true;
  inflight_.erase(fit);
  cv_.notify_all();
}

void SubplanCache::EvictOneLocked() {
  GPL_CHECK(!lru_.empty());
  // Scan the LRU tail window and pick the entry cheapest to recompute and
  // least re-used. Deterministic: ties keep the least-recently-used.
  auto victim = lru_.end();
  double victim_score = 0.0;
  auto it = lru_.end();
  for (int i = 0; i < kEvictionWindow && it != lru_.begin(); ++i) {
    --it;
    const Entry& entry = entries_.at(*it);
    const double score =
        entry.cost_ms * (1.0 + static_cast<double>(entry.hits));
    if (victim == lru_.end() || score < victim_score) {
      victim_score = score;
      victim = it;
    }
  }
  DropEntryLocked(*victim);
  ++stats_.evictions;
}

void SubplanCache::DropEntryLocked(const std::string& key) {
  auto it = entries_.find(key);
  GPL_CHECK(it != entries_.end());
  Entry& entry = it->second;
  used_pages_ -= entry.pages;
  stats_.bytes -= entry.bytes;
  --stats_.entries;
  lru_.erase(entry.lru_it);
  entries_.erase(it);
}

SubplanCacheStats SubplanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

PagePoolStats SubplanCache::pool_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PagePoolStats pages;
  pages.page_bytes = kPageBytes;
  pages.total_pages = total_pages_;
  pages.used_pages = used_pages_;
  pages.payload_bytes = stats_.bytes;
  pages.waste_bytes = used_pages_ * kPageBytes - stats_.bytes;
  return pages;
}

void SubplanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) DropEntryLocked(lru_.back());
}

std::vector<uint64_t> SubplanCache::RegisterGauges(
    obs::MetricsRegistry* metrics, const std::string& prefix) {
  std::vector<uint64_t> ids;
  if (metrics == nullptr) return ids;
  const auto gauge = [&](const std::string& name, const std::string& help,
                         std::function<double()> fn) {
    ids.push_back(
        metrics->AddCallbackGauge(prefix + name, help, {}, std::move(fn)));
  };
  gauge("_entries", "Retained subplan-cache entries",
        [this] { return static_cast<double>(stats().entries); });
  gauge("_bytes", "Logical payload bytes retained in the subplan cache",
        [this] { return static_cast<double>(stats().bytes); });
  gauge("_hits", "Subplan-cache hits (including in-flight attaches)",
        [this] { return static_cast<double>(stats().hits); });
  gauge("_misses", "Subplan-cache misses (owned computes)",
        [this] { return static_cast<double>(stats().misses); });
  gauge("_evictions", "Entries evicted for page pressure",
        [this] { return static_cast<double>(stats().evictions); });
  gauge("_pool_occupancy", "Used fraction of the page budget",
        [this] { return pool_stats().Occupancy(); });
  gauge("_pool_used_pages", "Pages charged to retained entries",
        [this] { return static_cast<double>(pool_stats().used_pages); });
  gauge("_pool_waste_bytes",
        "Internal fragmentation: reserved page bytes minus stored payload",
        [this] { return static_cast<double>(pool_stats().waste_bytes); });
  return ids;
}

}  // namespace pool
}  // namespace gpl

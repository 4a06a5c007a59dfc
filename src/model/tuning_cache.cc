#include "model/tuning_cache.h"

#include <cstdio>
#include <cstring>
#include <iterator>

namespace gpl {
namespace model {

namespace {

/// Appends a double as its raw 64-bit pattern (hex) — exact, no formatting
/// loss, and distinguishes e.g. -0.0 from 0.0.
void AppendBits(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx,",
                static_cast<unsigned long long>(bits));
  out->append(buf);
}

void AppendInt(std::string* out, long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld,", v);
  out->append(buf);
}

}  // namespace

TuningCache::TuningCache(size_t max_entries) : max_entries_(max_entries) {}

void TuningCache::EvictOneLocked() {
  // Same policy as pool::SubplanCache: scan the eviction window at the LRU
  // tail and drop the least re-used entry (recompute cost is uniform for
  // tuning results, so the cost-aware score is just 1 + hits); on a tie the
  // entry closer to the tail loses, keeping the more recently used.
  auto victim = std::prev(lru_.end());
  uint64_t victim_score = entries_.find(*victim)->second.hits;
  auto it = std::prev(lru_.end());
  for (int scanned = 1; scanned < kEvictionWindow && it != lru_.begin();
       ++scanned) {
    --it;
    const uint64_t score = entries_.find(*it)->second.hits;
    if (score < victim_score) {
      victim = it;
      victim_score = score;
    }
  }
  bytes_ -= static_cast<int64_t>(victim->size() + sizeof(Entry));
  entries_.erase(*victim);
  lru_.erase(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

std::string TuningCache::SegmentSignature(const sim::DeviceSpec& device,
                                          const SegmentDesc& segment,
                                          const TuningOverrides& overrides,
                                          const std::string& engine_scope) {
  std::string key;
  key.reserve(80 + segment.stages.size() * 160);
  // Engine mode + fusion decision first: a choice tuned for one mode's
  // search space must never alias a hit in another mode.
  key += engine_scope;
  key += '|';
  // Device: the presets are identified by name; num_cus/cache/clock guard
  // against hand-modified specs sharing a name.
  key += device.name;
  key += '|';
  AppendInt(&key, device.num_cus);
  AppendInt(&key, device.cache_bytes);
  AppendInt(&key, device.core_mhz);
  // Segment-wide inputs of the search.
  AppendBits(&key, segment.input_bytes);
  AppendInt(&key, segment.extra_resident_bytes);
  // Per-stage timing descriptor + optimizer cardinality estimates.
  for (const StageDesc& stage : segment.stages) {
    const sim::KernelTimingDesc& t = stage.timing;
    key += t.name;
    key += ':';
    AppendBits(&key, t.compute_inst_per_row);
    AppendBits(&key, t.mem_inst_per_row);
    AppendInt(&key, t.private_bytes_per_item);
    AppendInt(&key, t.local_bytes_per_item);
    AppendInt(&key, t.blocking ? 1 : 0);
    AppendBits(&key, t.random_access_fraction);
    AppendInt(&key, t.random_working_set_bytes);
    AppendBits(&key, stage.rows_in);
    AppendBits(&key, stage.bytes_in);
    AppendBits(&key, stage.rows_out);
    AppendBits(&key, stage.bytes_out);
    key += ';';
  }
  // Knob pins change the search space, so they are part of the key.
  key += '|';
  AppendInt(&key, overrides.tile_bytes);
  AppendInt(&key, overrides.workgroups_per_kernel);
  AppendInt(&key, overrides.has_channel ? 1 : 0);
  if (overrides.has_channel) {
    AppendInt(&key, overrides.channel.num_channels);
    AppendInt(&key, overrides.channel.packet_bytes);
  }
  return key;
}

std::optional<TuningChoice> TuningCache::Lookup(const std::string& signature) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      ++it->second.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.choice;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void TuningCache::Insert(const std::string& signature,
                         const TuningChoice& choice) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(signature) > 0) return;  // first wins (values identical)
  while (max_entries_ > 0 && entries_.size() >= max_entries_ &&
         !lru_.empty()) {
    EvictOneLocked();
  }
  lru_.push_front(signature);
  Entry entry;
  entry.choice = choice;
  entry.lru_it = lru_.begin();
  entries_.emplace(signature, std::move(entry));
  bytes_ += static_cast<int64_t>(signature.size() + sizeof(Entry));
}

TuningCacheStats TuningCache::stats() const {
  TuningCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.bytes = bytes_;
    stats.entries = static_cast<int64_t>(entries_.size());
  }
  return stats;
}

size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void TuningCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  evictions_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace model
}  // namespace gpl

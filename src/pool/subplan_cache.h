#ifndef GPL_POOL_SUBPLAN_CACHE_H_
#define GPL_POOL_SUBPLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"

namespace gpl {
namespace pool {

/// Configuration of a SubplanCache.
struct SubplanCacheOptions {
  /// Retention budget, a whole number of SubplanCache::kPageBytes pages
  /// (rounded down). 0 disables retention entirely: nothing is kept after
  /// its in-flight consumers finish, but concurrent queries computing the
  /// same key still attach to the one in-flight compute.
  int64_t capacity_bytes = 64ll * 1024 * 1024;
};

/// Page accounting of a SubplanCache (one consistent snapshot). Every
/// retained entry is charged ceil(bytes / page_bytes) pages; `waste_bytes`
/// is the round-up slack, reserved page bytes minus stored payload.
/// `payload_bytes` always equals SubplanCacheStats::bytes.
struct PagePoolStats {
  int64_t page_bytes = 0;
  int64_t total_pages = 0;
  int64_t used_pages = 0;
  int64_t payload_bytes = 0;
  int64_t waste_bytes = 0;

  double Occupancy() const {
    return total_pages == 0
               ? 0.0
               : static_cast<double>(used_pages) /
                     static_cast<double>(total_pages);
  }
};

/// Counters of a SubplanCache (one consistent snapshot). `hits` includes
/// `attaches` — the subset of hits that were served by waiting on another
/// query's in-flight compute rather than by a retained entry.
struct SubplanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t attaches = 0;
  uint64_t inserts = 0;
  uint64_t rejected = 0;  ///< publishes not retained (no pages after eviction)
  uint64_t evictions = 0;
  int64_t bytes = 0;    ///< logical payload bytes of retained entries
  int64_t entries = 0;  ///< retained entries

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// A service-wide cache of whole segment results — output tables and
/// build-side hash tables — keyed by exact plan signatures (the executor
/// composes them; see GplExecutor). Payloads are type-erased shared_ptrs:
/// the cache owns lifetime and budget, the executor owns meaning. The budget
/// is counted in fixed pages so occupancy and round-up waste are observable.
///
/// Concurrency protocol: Acquire() either returns a hit, or blocks while
/// another thread computes the same key, or makes the caller the *owner* of
/// the compute. An owner MUST call Publish() or Abort() exactly once;
/// waiters woken by Publish get the payload (an "attach"), waiters woken by
/// Abort retry and may become owners themselves. Eviction never invalidates
/// a served payload — consumers hold shared_ptr pins; eviction only drops
/// the cache's own reference and its pages.
class SubplanCache {
 public:
  using Payload = std::shared_ptr<const void>;

  /// Outcome of Acquire.
  struct Acquisition {
    bool hit = false;    ///< payload is valid (retained entry or attach)
    bool owner = false;  ///< caller must Publish() or Abort() this key
    Payload payload;
  };

  /// Page size of the budget.
  static constexpr int64_t kPageBytes = 64 * 1024;

  explicit SubplanCache(const SubplanCacheOptions& options);
  ~SubplanCache();

  SubplanCache(const SubplanCache&) = delete;
  SubplanCache& operator=(const SubplanCache&) = delete;

  Acquisition Acquire(const std::string& key);

  /// Publishes the owner's computed payload: wakes waiters (they all receive
  /// `payload` regardless of retention) and tries to retain the entry,
  /// evicting cold entries for pages as needed. `bytes` (>= 0) is the
  /// logical size charged; `cost_ms` the host cost to recompute (eviction
  /// scoring). An entry larger than the whole budget is rejected without
  /// evicting anything.
  void Publish(const std::string& key, Payload payload, int64_t bytes,
               double cost_ms);

  /// Abandons the owner's compute (error/cancellation): wakes waiters to
  /// retry. The failed status propagates only through the owner.
  void Abort(const std::string& key);

  SubplanCacheStats stats() const;
  PagePoolStats pool_stats() const;

  /// Drops every retained entry (in-flight computes are unaffected).
  void Clear();

  /// Registers occupancy/waste/traffic gauges on `metrics` and returns the
  /// callback ids. The callbacks read this cache, so the caller removes them
  /// (RemoveCallback) before it is destroyed, unless nothing can collect
  /// `metrics` by then (QueryService owns both). `prefix` names the family,
  /// e.g. "gpl_subplan".
  std::vector<uint64_t> RegisterGauges(obs::MetricsRegistry* metrics,
                                       const std::string& prefix);

 private:
  struct Entry {
    Payload payload;
    int64_t bytes = 0;
    int64_t pages = 0;
    double cost_ms = 0.0;
    uint64_t hits = 0;
    std::list<std::string>::iterator lru_it;
  };
  struct InFlight {
    bool done = false;
    bool published = false;
    Payload payload;
  };

  /// Evicts the entry cheapest to recompute and least re-used
  /// (min cost_ms * (1 + hits)) among the 4 least-recently-used ones.
  /// The LRU list must be non-empty.
  void EvictOneLocked();
  void DropEntryLocked(const std::string& key);

  const int64_t total_pages_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t used_pages_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::list<std::string> lru_;  ///< front = most recently used
  SubplanCacheStats stats_;
};

}  // namespace pool
}  // namespace gpl

#endif  // GPL_POOL_SUBPLAN_CACHE_H_

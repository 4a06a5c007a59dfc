#ifndef GPL_MODEL_TUNING_CACHE_H_
#define GPL_MODEL_TUNING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "model/plan_tuner.h"
#include "sim/device.h"

namespace gpl {
namespace model {

/// Hit/miss counters of a TuningCache — one consistent-enough snapshot for
/// stats reporting (the counters are monotonic atomics).
struct TuningCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Bounding accounting: entries dropped by the LRU/cost-aware policy,
  /// approximate retained bytes (keys + values), and retained entry count.
  uint64_t evictions = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Memoizes TuneSegment results keyed by an exact segment signature
/// (device + stage timing descriptors + cardinalities + overrides), so a
/// service replaying the same plans pays the grid search once and
/// steady-state OptimizeWallMs() collapses to a hash lookup.
///
/// Exact-match keying is deliberate: TuneSegment is deterministic, so a hit
/// on an identical signature provably returns the same TuningChoice a fresh
/// search would — simulated cycle counts cannot change. Bucketing the
/// cardinalities was rejected because a hit computed for a *different*
/// cardinality could pick different parameters than fresh tuning, silently
/// altering simulated timing. Repeated identical queries (the service's
/// steady state) still hit at 100%.
///
/// Thread-safe; shared across QueryService worker engines. Concurrent
/// first-misses on one key both tune and both insert — insertion is
/// first-wins and the values are identical, so this is benign.
class TuningCache {
 public:
  /// `max_entries` bounds the number of memoized choices. Past the bound
  /// the cache evicts with the same policy as pool::SubplanCache — among the
  /// `kEvictionWindow` least-recently-used entries, drop the least re-used
  /// (recompute cost is uniform here, so the cost-aware score degenerates to
  /// 1 + hits); ties keep the more recently used. 0 means unbounded.
  explicit TuningCache(size_t max_entries = kDefaultMaxEntries);

  static constexpr size_t kDefaultMaxEntries = 65536;
  static constexpr int kEvictionWindow = 4;

  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  /// The exact memoization key for one segment on one device. Floating
  /// cardinalities enter as raw bit patterns, not formatted decimals, so no
  /// two distinct descriptions collide.
  ///
  /// `engine_scope` names the engine mode (and, for the fused mode, the
  /// fusion grouping) the choice was tuned for — e.g. "gpl", "noce",
  /// "fused:2,1". Different modes search different spaces and produce
  /// TuningChoices with different engine fields, so a choice cached under
  /// one mode must never be served to another.
  static std::string SegmentSignature(const sim::DeviceSpec& device,
                                      const SegmentDesc& segment,
                                      const TuningOverrides& overrides,
                                      const std::string& engine_scope);

  /// Returns the memoized choice, counting a hit; nullopt counts a miss.
  std::optional<TuningChoice> Lookup(const std::string& signature);

  /// Memoizes a freshly tuned choice (first insert wins).
  void Insert(const std::string& signature, const TuningChoice& choice);

  TuningCacheStats stats() const;
  size_t size() const;  ///< memoized segment choices
  void Clear();  ///< drops entries and resets the counters

 private:
  struct Entry {
    TuningChoice choice;
    uint64_t hits = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Drops the least re-used entry among the window at the LRU tail (ties
  /// keep the more recently used). Requires mu_ held.
  void EvictOneLocked();

  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recently used
  int64_t bytes_ = 0;  ///< approximate retained bytes; guarded by mu_
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace model
}  // namespace gpl

#endif  // GPL_MODEL_TUNING_CACHE_H_

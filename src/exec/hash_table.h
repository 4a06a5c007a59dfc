#ifndef GPL_EXEC_HASH_TABLE_H_
#define GPL_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

namespace gpl {

/// Hash table for equi-joins: maps int64 keys to build-side row indices.
/// Layout follows the GPU-style unzipped chained design of [He et al. 2013]:
/// a power-of-two bucket array of chain heads plus parallel entry arrays
/// (key, row, next), which is what the simulated hash build/probe kernels
/// "materialize" in global memory. Duplicated keys are supported.
class JoinHashTable {
 public:
  JoinHashTable() = default;

  /// Builds from a key array; entry i maps keys[i] -> row_base + i.
  void Build(const std::vector<int64_t>& keys, int64_t row_base = 0);

  /// Appends more entries (used by tile-wise non-blocking hash build).
  /// The hashes are computed morsel-parallel when the current scope allows
  /// (common/thread_pool.h); the chain linking itself stays serial so the
  /// entry order, chain order and byte_size() are identical to a serial
  /// build at any host_threads — probes report matches in chain order, so
  /// the layout is observable. (A partitioned parallel insert was rejected:
  /// it cannot reproduce the serial chain layout, and linking is three
  /// stores per entry — the parallel win is in hashing, which this keeps.)
  void Insert(const std::vector<int64_t>& keys, int64_t row_base);

  /// Insert with caller-precomputed hashes; hashes[i] must be
  /// HashKey(keys[i]).
  void Insert(const std::vector<int64_t>& keys,
              const std::vector<uint64_t>& hashes, int64_t row_base);

  /// Appends all build-side matches of `key` to `rows`.
  void Probe(int64_t key, std::vector<int64_t>* rows) const;

  /// Probes keys[0..n) and appends one (row_base + i, build row) pair to
  /// (probe_idx, build_idx) per match: ascending i, and chain order within
  /// one key — exactly the pairs of calling Probe(keys[i]) for each i in
  /// turn. Keys go in groups of kProbeGroup: all of a group's bucket heads
  /// are prefetched, then their first chain entries, then the chains are
  /// walked, so the group's cache misses overlap instead of queueing.
  void ProbeBatch(const int64_t* keys, int64_t n, int64_t row_base,
                  std::vector<int64_t>* probe_idx,
                  std::vector<int64_t>* build_idx) const;

  /// Keys per ProbeBatch prefetch group.
  static constexpr int64_t kProbeGroup = 16;

  int64_t num_entries() const { return static_cast<int64_t>(entry_keys_.size()); }

  /// Bytes of the materialized table in (simulated) global memory: buckets +
  /// the three entry arrays. This is the random working set of probe kernels.
  int64_t byte_size() const;

  /// Packs a pair of int32 keys into one int64 join key (composite joins,
  /// e.g. Q9's partsupp join).
  static int64_t PackKeys(int32_t a, int32_t b) {
    return (static_cast<int64_t>(a) << 32) ^
           (static_cast<int64_t>(b) & 0xffffffffLL);
  }

  /// The key hash (murmur-style finalizer). Public so builds can precompute
  /// hashes in parallel.
  static uint64_t HashKey(int64_t key) {
    uint64_t h = static_cast<uint64_t>(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

 private:
  void Rehash(int64_t min_buckets);

  std::vector<int64_t> buckets_;     // head entry index per bucket, -1 empty
  std::vector<int64_t> entry_keys_;
  std::vector<int64_t> entry_rows_;
  std::vector<int64_t> entry_next_;  // chain link, -1 end
};

}  // namespace gpl

#endif  // GPL_EXEC_HASH_TABLE_H_

#include "exec/hash_table.h"

#include <cstddef>
#include <algorithm>

#include "common/math_util.h"
#include "common/thread_pool.h"

namespace gpl {

void JoinHashTable::Build(const std::vector<int64_t>& keys, int64_t row_base) {
  buckets_.clear();
  entry_keys_.clear();
  entry_rows_.clear();
  entry_next_.clear();
  Insert(keys, row_base);
}

void JoinHashTable::Insert(const std::vector<int64_t>& keys, int64_t row_base) {
  std::vector<uint64_t> hashes(keys.size());
  ParallelFor(0, static_cast<int64_t>(keys.size()), kMorselRows,
              [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) {
                  hashes[static_cast<size_t>(i)] =
                      HashKey(keys[static_cast<size_t>(i)]);
                }
              });
  Insert(keys, hashes, row_base);
}

void JoinHashTable::Insert(const std::vector<int64_t>& keys,
                           const std::vector<uint64_t>& hashes,
                           int64_t row_base) {
  const int64_t target = num_entries() + static_cast<int64_t>(keys.size());
  if (static_cast<int64_t>(buckets_.size()) < target) {
    Rehash(target * 2);
  }
  const uint64_t mask = buckets_.size() - 1;
  entry_keys_.reserve(static_cast<size_t>(target));
  entry_rows_.reserve(static_cast<size_t>(target));
  entry_next_.reserve(static_cast<size_t>(target));
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t entry = static_cast<int64_t>(entry_keys_.size());
    const size_t bucket = static_cast<size_t>(hashes[i] & mask);
    entry_keys_.push_back(keys[i]);
    entry_rows_.push_back(row_base + static_cast<int64_t>(i));
    entry_next_.push_back(buckets_[bucket]);
    buckets_[bucket] = entry;
  }
}

void JoinHashTable::Probe(int64_t key, std::vector<int64_t>* rows) const {
  if (buckets_.empty()) return;
  const uint64_t mask = buckets_.size() - 1;
  int64_t entry = buckets_[static_cast<size_t>(HashKey(key) & mask)];
  while (entry >= 0) {
    if (entry_keys_[static_cast<size_t>(entry)] == key) {
      rows->push_back(entry_rows_[static_cast<size_t>(entry)]);
    }
    entry = entry_next_[static_cast<size_t>(entry)];
  }
}

void JoinHashTable::ProbeBatch(const int64_t* keys, int64_t n,
                               int64_t row_base,
                               std::vector<int64_t>* probe_idx,
                               std::vector<int64_t>* build_idx) const {
  if (buckets_.empty()) return;
  const uint64_t mask = buckets_.size() - 1;
  const int64_t* buckets = buckets_.data();
  const int64_t* entry_keys = entry_keys_.data();
  const int64_t* entry_rows = entry_rows_.data();
  const int64_t* entry_next = entry_next_.data();
  uint64_t bucket[kProbeGroup];
  int64_t head[kProbeGroup];
  for (int64_t g = 0; g < n; g += kProbeGroup) {
    const int64_t m = std::min(kProbeGroup, n - g);
    for (int64_t j = 0; j < m; ++j) {
      bucket[j] = HashKey(keys[g + j]) & mask;
      __builtin_prefetch(buckets + bucket[j]);
    }
    for (int64_t j = 0; j < m; ++j) {
      head[j] = buckets[bucket[j]];
      if (head[j] >= 0) {
        __builtin_prefetch(entry_keys + head[j]);
        __builtin_prefetch(entry_next + head[j]);
        __builtin_prefetch(entry_rows + head[j]);
      }
    }
    for (int64_t j = 0; j < m; ++j) {
      const int64_t key = keys[g + j];
      for (int64_t entry = head[j]; entry >= 0; entry = entry_next[entry]) {
        if (entry_keys[entry] == key) {
          probe_idx->push_back(row_base + g + j);
          build_idx->push_back(entry_rows[entry]);
        }
      }
    }
  }
}

int64_t JoinHashTable::byte_size() const {
  return static_cast<int64_t>(buckets_.size() * sizeof(int64_t) +
                              entry_keys_.size() * sizeof(int64_t) * 3);
}

void JoinHashTable::Rehash(int64_t min_buckets) {
  const size_t new_size = static_cast<size_t>(NextPow2(
      static_cast<uint64_t>(std::max<int64_t>(min_buckets, 16))));
  buckets_.assign(new_size, -1);
  const uint64_t mask = new_size - 1;
  for (size_t e = 0; e < entry_keys_.size(); ++e) {
    const size_t bucket = static_cast<size_t>(HashKey(entry_keys_[e]) & mask);
    entry_next_[e] = buckets_[bucket];
    buckets_[bucket] = static_cast<int64_t>(e);
  }
}

}  // namespace gpl

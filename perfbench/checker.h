// Result checking for the benchmark.
//
// Every execution is keyed by (query+parameters, mode, device, shards). The
// first result of a key is kept; every later result of that key must be
// bit-identical to it (table, HwCounters, simulated elapsed_ms). After the
// timed window each key's first result is compared once against the CPU
// reference executor (ref::ExecutePlan + ref::TablesEqual).
#ifndef GPL_PERFBENCH_CHECKER_H_
#define GPL_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "sim/counters.h"
#include "storage/table.h"

namespace perfbench {

/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Schema, column types and every value bit for bit.
inline bool TablesBitIdentical(const gpl::Table& a, const gpl::Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) return false;
  for (int64_t i = 0; i < a.num_columns(); ++i) {
    const gpl::Column& x = a.ColumnAt(i);
    const gpl::Column& y = b.ColumnAt(i);
    if (a.ColumnNameAt(i) != b.ColumnNameAt(i) || x.type() != y.type() ||
        !SameBits(x.data32(), y.data32()) || !SameBits(x.data64(), y.data64()) ||
        !SameBits(x.dataf(), y.dataf())) {
      return false;
    }
  }
  return true;
}

inline bool CountersBitIdentical(const gpl::sim::HwCounters& a,
                                 const gpl::sim::HwCounters& b) {
  return SameBits(a.elapsed_cycles, b.elapsed_cycles) &&
         SameBits(a.compute_cycles, b.compute_cycles) &&
         SameBits(a.mem_cycles, b.mem_cycles) &&
         SameBits(a.channel_cycles, b.channel_cycles) &&
         SameBits(a.stall_cycles, b.stall_cycles) &&
         SameBits(a.launch_cycles, b.launch_cycles) &&
         SameBits(a.cache_hits, b.cache_hits) &&
         SameBits(a.cache_accesses, b.cache_accesses) &&
         SameBits(a.resident_wg_time, b.resident_wg_time) &&
         a.bytes_materialized == b.bytes_materialized &&
         a.bytes_via_channel == b.bytes_via_channel;
}

/// FNV-1a over raw bytes; folds simulated observables into one fingerprint.
inline uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

class Checker {
 public:
  struct First {
    std::string query;  ///< query+parameters part of the key (ref lookup)
    gpl::QueryResult result;
  };

  /// Records one execution. Returns false (and counts a failure) when it is
  /// not bit-identical to the key's first execution.
  bool Observe(const std::string& query, const std::string& config,
               const gpl::QueryResult& result) {
    ++attempted_;
    const std::string key = query + "|" + config;
    auto it = first_.find(key);
    if (it == first_.end()) {
      first_.emplace(key, First{query, result});
      return true;
    }
    const gpl::QueryResult& f = it->second.result;
    if (TablesBitIdentical(f.table, result.table) &&
        CountersBitIdentical(f.metrics.counters, result.metrics.counters) &&
        SameBits(f.metrics.elapsed_ms, result.metrics.elapsed_ms)) {
      return true;
    }
    Fail("repeat of " + key + " is not bit-identical to its first execution");
    return false;
  }

  /// An execution that returned an error.
  void ObserveError(const std::string& what) {
    ++attempted_;
    Fail(what);
  }

  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }

  /// Adds another checker's counts (a probe checked on its own database).
  void Merge(const Checker& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }

  const std::map<std::string, First>& first() const { return first_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Fingerprint of the simulated observables (elapsed_ms and counters) of
  /// every key whose query label is in `labels`, in key order: equal
  /// fingerprints mean the model produced the same simulated numbers.
  uint64_t SimFingerprint(const std::set<std::string>& labels) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [key, f] : first_) {
      if (!labels.count(f.query)) continue;
      h = Fnv(h, key.data(), key.size());
      h = Fnv(h, &f.result.metrics.elapsed_ms, sizeof(double));
      h = Fnv(h, &f.result.metrics.counters, sizeof(gpl::sim::HwCounters));
    }
    return h;
  }

 private:
  std::map<std::string, First> first_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // GPL_PERFBENCH_CHECKER_H_

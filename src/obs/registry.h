#ifndef GPL_OBS_REGISTRY_H_
#define GPL_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gpl {
namespace obs {

/// Label set of one time series, as (key, value) pairs. Order does not
/// matter: the registry canonicalizes by sorting on key at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter (events, bytes). Thread-safe; the hot
/// path is one relaxed atomic add.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A gauge: a value that can go up and down (queue depth) or accumulate
/// fractionally (simulated milliseconds). Thread-safe.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a Histogram: fixed log-scale buckets covering
/// [min_value, max_value] with `buckets_per_decade` buckets per factor of
/// ten, plus an underflow bucket (<= min_value) and an overflow bucket
/// (> max_value). The layout is fixed at construction, so a histogram's
/// memory is bounded no matter how many observations it absorbs — this is
/// what replaces the service's unbounded latency vector.
struct HistogramOptions {
  double min_value = 1e-3;
  double max_value = 1e7;
  int buckets_per_decade = 20;

  /// Layout for host-latency histograms in milliseconds: 1 us .. 1000 s at
  /// ~12% bucket width (20 buckets per decade).
  static HistogramOptions LatencyMs() {
    HistogramOptions o;
    o.min_value = 1e-3;
    o.max_value = 1e6;
    o.buckets_per_decade = 20;
    return o;
  }
};

/// One consistent-enough copy of a histogram's state (relaxed atomic reads;
/// exact once writers are quiescent).
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< inclusive upper bounds, one per bucket
  std::vector<uint64_t> counts;  ///< same size as bounds, plus overflow last
  uint64_t count = 0;
  double sum = 0.0;
  double min_seen = 0.0;  ///< 0 when count == 0
  double max_seen = 0.0;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket containing the target rank, clamped to the observed min/max.
  /// Relative error is bounded by the bucket width (10^(1/buckets_per_decade)
  /// - 1); tests/obs_test.cc validates this bound against the exact
  /// testing_util::Percentile oracle.
  double Quantile(double q) const;
};

/// A fixed-bucket log-scale histogram. Thread-safe: Observe is two relaxed
/// atomic adds plus CAS loops for sum/min/max.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options);

  void Observe(double value);

  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Quantile of the current contents (see HistogramSnapshot::Quantile).
  double Quantile(double q) const { return Snapshot().Quantile(q); }

  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  /// counts_[i] <= bounds_[i]; counts_.back() is the overflow bucket.
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_seen_{0.0};
  std::atomic<double> max_seen_{0.0};
  std::atomic<bool> any_{false};
};

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Deep copy of one time series for exporters.
struct SeriesSnapshot {
  Labels labels;
  double value = 0.0;  ///< counter/gauge value (counters cast to double)
  uint64_t counter_value = 0;  ///< exact counter value (for golden output)
  std::optional<HistogramSnapshot> histogram;
};

/// Deep copy of one metric family (name + type + all label children).
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// A service-wide metrics registry: named families of counters, gauges and
/// histograms, each family fanned out by label sets. Handles returned by
/// Get* are stable for the registry's lifetime and safe to use from any
/// thread; acquiring a handle takes the registry mutex, so callers should
/// fetch handles once (at construction) and keep them — the instrumented hot
/// paths then never lock.
///
/// Null-registry fast path: the layers under a QueryService (which always
/// owns a registry) take a `MetricsRegistry*` that may be nullptr, hold
/// nullptr handles in that case, and guard each update with a null check
/// (see the free helpers below). Disabled metrics therefore cost one
/// predictable branch per site.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter for (name, labels), creating family and series on
  /// first use. `help` is recorded on family creation (later values are
  /// ignored). Aborts if `name` is already registered with another type.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const HistogramOptions& options,
                          const Labels& labels = {});

  /// Registers a gauge whose value is computed by `fn` at collection time
  /// (used to surface counters owned elsewhere, e.g. ThreadPool or
  /// TuningCache internals). Returns an id for RemoveCallback. The callback
  /// runs under the registry mutex during Collect(): it must be fast, must
  /// not touch the registry, and must be removed before anything it captures
  /// is destroyed.
  uint64_t AddCallbackGauge(const std::string& name, const std::string& help,
                            const Labels& labels, std::function<double()> fn);
  void RemoveCallback(uint64_t id);

  /// One consistent-enough snapshot of every family, sorted by name (series
  /// sorted by label key string), ready for the exporters in obs/export.h.
  std::vector<FamilySnapshot> Collect() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  ///< callback-gauge series only
    uint64_t callback_id = 0;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::optional<HistogramOptions> histogram_options;
    std::map<std::string, Series> series;  ///< keyed by canonical label string
  };

  Family& GetFamilyLocked(const std::string& name, const std::string& help,
                          MetricType type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  uint64_t next_callback_id_ = 1;
};

/// Canonical label-set encoding ("k1=v1\x1fk2=v2", sorted by key). Exposed
/// for tests.
std::string EncodeLabels(const Labels& labels);

// ---- Null-registry fast-path helpers -------------------------------------
// Instrumented sites hold possibly-null handles and update through these, so
// the disabled path is a single branch.

inline void Inc(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Increment(n);
}
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Add(Gauge* g, double v) {
  if (g != nullptr) g->Add(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Observe(v);
}

}  // namespace obs
}  // namespace gpl

#endif  // GPL_OBS_REGISTRY_H_

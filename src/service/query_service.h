#ifndef GPL_SERVICE_QUERY_SERVICE_H_
#define GPL_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "engine/engine.h"
#include "obs/registry.h"
#include "model/calibration.h"
#include "model/tuning_cache.h"
#include "plan/logical_plan.h"
#include "pool/subplan_cache.h"
#include "shard/device_group.h"
#include "shard/partitioner.h"
#include "sim/fault.h"
#include "tpch/dbgen.h"

namespace gpl {
namespace trace {
class TraceCollector;
}  // namespace trace

namespace service {

/// Retry policy for transient execution errors (kTransientDeviceError).
/// Attempts beyond the first back off exponentially with deterministic,
/// seeded jitter; the query's deadline is honored between attempts, so a
/// retry never outlives the submitter's timeout.
struct RetryPolicy {
  /// Total attempts per query (1 = no retries). Values < 1 behave as 1.
  int max_attempts = 1;
  /// Backoff before retry k (1-based) is
  /// initial_backoff_ms * backoff_multiplier^(k-1), capped at max_backoff_ms.
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 50.0;
  /// Each backoff is scaled by a factor uniform in
  /// [1 - jitter_fraction, 1 + jitter_fraction], drawn from a per-query
  /// deterministic stream (seeded from the fault seed and the query's
  /// admission sequence) so runs reproduce exactly.
  double jitter_fraction = 0.2;
};

/// Configuration of a QueryService.
struct ServiceOptions {
  /// Host worker threads; each owns a private Engine over the shared
  /// database (engines are not thread-safe, the database is).
  int num_workers = 2;

  /// Admission-queue bound: Submit() rejects with kResourceExhausted once
  /// this many queries are waiting (backpressure instead of unbounded
  /// memory growth). Must be >= 1.
  size_t queue_capacity = 32;

  /// Default per-query deadline (host wall-clock, from admission), applied
  /// when Submit() is not given an explicit timeout. <= 0 disables it.
  double default_timeout_ms = 0.0;

  /// Template for the per-worker engines: device, mode, partitioned joins,
  /// default ExecOptions. `exec.trace` is forced to nullptr (a collector
  /// cannot be shared across workers — use ExportTrace() for a service-level
  /// timeline) and `calibration` is replaced by the service's shared table.
  /// `exec.fault` is likewise forced to nullptr: a FaultInjector is mutable
  /// per-execution state, so the service builds a fresh one per attempt from
  /// `fault` below instead of sharing one across workers.
  EngineOptions engine;

  /// Fault-injection configuration (chaos testing / availability benches).
  /// When enabled(), every execution attempt gets its own injector seeded by
  /// sim::FaultInjector::AttemptSeed(fault.seed, admission sequence,
  /// attempt), so a query's fault outcomes are reproducible regardless of
  /// worker assignment or host timing.
  sim::FaultConfig fault;

  /// Retry policy for transient device errors.
  RetryPolicy retry;

  /// Sharded execution (> 1): the service partitions the database once at
  /// construction (shard::PartitionDatabase), shares it with every worker
  /// engine via EngineOptions::sharded_db, and sets the sharding shape on
  /// the workers' default ExecOptions — queries then route through the
  /// unified Engine::Execute surface onto a device group of this size.
  /// Placement is whole-group per query: one query occupies all devices of
  /// its worker's group for its duration, and retries re-run the entire
  /// sharded execution. 1 (the default) keeps the single-device path.
  int num_shards = 1;
  /// Device group template. Empty = num_shards copies of engine.device;
  /// non-empty (a mixed group) must have exactly num_shards entries.
  std::vector<sim::DeviceSpec> devices;
  /// Interconnect of the group (exchange cost model).
  sim::LinkSpec link;

  /// Shared-work execution: one pool::SubplanCache for all workers. A
  /// segment result (a built hash table included) computed by any worker is
  /// a hit for every other, and concurrently admitted queries running the
  /// same segment attach to its one in-flight compute. Results are
  /// bit-identical with the cache on or off at any capacity — hits replay
  /// the cold run's timing simulation — so this only trades host memory for
  /// host wall-clock. Disabled for sharded services (per-shard databases
  /// make whole-database entries unsound; the engine nulls it there anyway).
  bool subplan_cache = true;
  /// Capacity of the shared subplan cache in MiB. 0 keeps in-flight attach
  /// but retains nothing.
  int64_t subplan_cache_mb = 64;

  /// Optional metrics registry. When set, the service registers admission /
  /// outcome counters, queue-depth and running gauges, overall and per-class
  /// latency histograms, and callback gauges over the shared ThreadPool and
  /// TuningCache; it is also propagated to the worker engines (simulator
  /// counters) unless `engine.metrics` was set explicitly. Must outlive the
  /// service. nullptr (the default) is the null-registry fast path.
  obs::MetricsRegistry* metrics = nullptr;
};

/// How an admitted query ended.
enum class QueryOutcome {
  kCompleted,  ///< executed successfully
  kTimedOut,   ///< deadline expired (in queue or at a segment boundary)
  kCancelled,  ///< QueryHandle::Cancel() observed
  kFailed,     ///< any other execution error
};

/// Aggregated service counters — one consistent snapshot (see
/// QueryService::Stats). Latencies are host wall-clock from admission to
/// completion, over completed queries only; simulated time is the sum of the
/// per-query simulated elapsed times (the two time bases are reported
/// separately and never mixed).
struct ServiceStats {
  uint64_t submitted = 0;  ///< Submit() calls (admitted + rejected)
  uint64_t admitted = 0;
  uint64_t rejected = 0;   ///< bounced off the full admission queue
  uint64_t completed = 0;
  uint64_t timed_out = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;

  size_t queue_depth = 0;       ///< currently waiting
  size_t running = 0;           ///< currently executing
  uint64_t max_queue_depth = 0; ///< high-water mark

  double p50_latency_ms = 0.0;  ///< host wall-clock, completed queries
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double total_simulated_ms = 0.0;  ///< simulated device time, completed

  /// Shared tuning-cache accounting across all workers (GPL modes; zero for
  /// the KBE baselines). Steady-state serving should show hits >> misses —
  /// a segment tuned once by any worker is a lookup for every other.
  uint64_t tuning_cache_hits = 0;
  uint64_t tuning_cache_misses = 0;

  /// Shared subplan-cache (data memoization) accounting across all workers
  /// (zero when ServiceOptions::subplan_cache is off). `subplan_attaches` is
  /// the subset of hits served by waiting on another query's in-flight
  /// compute of the same segment.
  uint64_t subplan_cache_hits = 0;
  uint64_t subplan_cache_misses = 0;
  uint64_t subplan_attaches = 0;
  uint64_t subplan_evictions = 0;
  int64_t subplan_bytes = 0;
  int64_t subplan_entries = 0;
  /// Always 0: the shared base-table scans they counted were removed. Kept
  /// because perfbench/gplbench.cc still reads them.
  uint64_t scan_rows_scanned = 0;
  uint64_t scan_rows_shared = 0;
  /// Completed queries whose execution had at least one subplan-cache hit
  /// (per-query cache outcome; each query's own counts ride its
  /// QueryMetrics and the serve-mode telemetry JSONL).
  uint64_t queries_with_cache_hits = 0;

  double SubplanHitRate() const {
    const uint64_t total = subplan_cache_hits + subplan_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(subplan_cache_hits) /
                            static_cast<double>(total);
  }

  /// Fault-recovery accounting (zero without fault injection).
  uint64_t retries = 0;   ///< re-execution attempts beyond each query's first
  uint64_t degraded = 0;  ///< completed queries with >= 1 degraded segment
  uint64_t gave_up = 0;   ///< transient errors that exhausted max_attempts

  /// Sharded-execution accounting (empty/zero for unsharded services).
  /// Per-device-slot load: every worker's group shares slot indexing
  /// (device 0 of any worker accumulates into slot 0).
  uint64_t exchange_bytes = 0;            ///< broadcast + shuffle, completed
  std::vector<double> device_busy_ms;     ///< simulated busy time per slot
  std::vector<uint64_t> device_queries;   ///< completed queries per slot

  /// Human-readable one-stop report for CLIs/benches.
  std::string ToString() const;
};

/// Handle to a submitted query — a future over its Result<QueryResult>.
/// Copyable; all copies refer to the same submission. Safe to use from any
/// thread.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return task_ != nullptr; }

  /// Requests cooperative cancellation. The query unwinds at its next
  /// segment/operator boundary (or before it starts, if still queued).
  void Cancel();

  /// True once the result is available (non-blocking).
  bool Done() const;

  /// Blocks until the query finishes and returns its result. The reference
  /// stays valid for the handle's lifetime. On a default-constructed or
  /// moved-from handle (!valid()) there is nothing to wait for: returns a
  /// kFailedPrecondition error instead of blocking (or crashing).
  const Result<QueryResult>& Await();

 private:
  friend class QueryService;
  struct Task;
  explicit QueryHandle(std::shared_ptr<Task> task) : task_(std::move(task)) {}
  std::shared_ptr<Task> task_;
};

/// A concurrent multi-query execution service: the paper's engine lifted to
/// serving many whole queries at once. Owns a pool of host worker threads,
/// each with a private Engine, all over one shared immutable tpch::Database
/// and one shared channel-calibration table. Queries are admitted into a
/// bounded queue (Submit rejects with kResourceExhausted when it is full),
/// carry per-query deadlines/cancellation tokens that executors poll at
/// segment boundaries, and report into an aggregated ServiceStats snapshot.
///
/// Determinism: execution is fully simulated, so a query's result table and
/// HwCounters are bit-identical no matter which worker runs it or how many
/// queries run concurrently — only host-side wall-clock fields (latencies,
/// *_wall_ms metrics) vary. tests/service_test.cc asserts this.
///
/// Thread-safety: all public methods are safe to call from any thread.
class QueryService {
 public:
  /// Builds the shared catalog-independent state (one channel calibration
  /// run for the configured device) and starts the workers. `db` must
  /// outlive the service and must not be mutated while it is running.
  QueryService(const tpch::Database* db, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits a query for asynchronous execution. `timeout_ms` overrides the
  /// service default deadline (<= 0 keeps the default). Returns the handle,
  /// or kResourceExhausted when the admission queue is full, or kUnavailable
  /// after Shutdown().
  Result<QueryHandle> Submit(std::string name, LogicalQuery query,
                             double timeout_ms = 0.0);

  /// One consistent snapshot of the aggregated counters.
  ServiceStats Stats() const;

  /// Stops dispatching queued queries (running ones finish). Admission stays
  /// open, so the queue can be filled deterministically — used by tests and
  /// for drain-style maintenance.
  void Pause();
  void Resume();

  /// Stops admission, drains the queue, and joins the workers. Idempotent;
  /// also called by the destructor. Queued queries still execute (their
  /// deadlines permitting) before Shutdown returns.
  void Shutdown();

  /// Exports the service-level timeline into a trace collector: one track
  /// per worker with a queue-wait + execution span per query (host time:
  /// with the collector's default clock, 1 "cycle" = 1 ns), plus
  /// queue-depth/running counter series and instants for rejected
  /// submissions. Call from one thread, typically after the run.
  void ExportTrace(trace::TraceCollector* collector) const;

  const model::CalibrationTable& calibration() const { return calibration_; }
  const ServiceOptions& options() const { return options_; }
  /// True when queries run through sharded execution (num_shards > 1).
  bool sharded() const { return sharded_.has_value(); }
  /// The per-worker device-group template (empty group when !sharded()).
  const shard::DeviceGroup& device_group() const { return group_; }
  /// The TuneSegment memo shared by every worker engine (thread-safe).
  model::TuningCache& tuning_cache() { return tuning_cache_; }
  /// The subplan-data memo shared by every worker engine (thread-safe).
  pool::SubplanCache& subplan_cache() { return subplan_cache_; }

 private:
  struct FinishedRecord {
    std::string name;
    int worker = -1;
    QueryOutcome outcome = QueryOutcome::kCompleted;
    int64_t submit_ns = 0;  ///< since service start
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    double simulated_ms = 0.0;
    int attempts = 0;       ///< engine executions (0 = deadline beat dispatch)
    bool degraded = false;  ///< completed with >= 1 degraded segment
    int64_t subplan_hits = 0;    ///< this query's subplan-cache hits
    int64_t subplan_misses = 0;  ///< this query's cacheable-segment misses
    int64_t exchange_bytes = 0;            ///< sharded runs only
    std::vector<double> device_elapsed_ms; ///< sharded runs only
    /// (start_ns, end_ns) of each engine execution; gaps between entries are
    /// retry backoff. Rendered by ExportTrace when attempts > 1.
    std::vector<std::pair<int64_t, int64_t>> attempt_spans;
  };

  /// What a worker runs a query through (its private Engine, bound by
  /// reference), erased so RunTask's retry/deadline/bookkeeping logic does
  /// not depend on worker state.
  using ExecuteFn =
      std::function<Result<QueryResult>(const LogicalQuery&, const ExecOptions&)>;

  void WorkerLoop(int worker_index);
  void RunTask(int worker_index, const ExecuteFn& execute,
               const std::shared_ptr<QueryHandle::Task>& task);
  int64_t NowNs() const;  ///< host steady-clock ns since service start

  const tpch::Database* db_;
  ServiceOptions options_;
  /// Shared Γ calibration (Section 2.1) referenced by every worker engine.
  model::CalibrationTable calibration_;
  /// Sharded mode only: the partitioned database (shared, read-only), the
  /// per-worker device-group template, and one calibration per distinct
  /// device name in the group (shared by every worker's executor).
  std::optional<shard::ShardedDatabase> sharded_;
  shard::DeviceGroup group_;
  std::map<std::string, model::CalibrationTable> shard_calibrations_;
  /// Shared TuneSegment memo referenced by every worker engine: a segment
  /// tuned by any worker is a cache hit for the rest, so steady-state
  /// OptimizeWallMs() collapses to a signature lookup. Thread-safe.
  model::TuningCache tuning_cache_;
  /// Shared subplan-data memo referenced by every worker engine when
  /// ServiceOptions::subplan_cache is on: segment results and build-side
  /// hash tables materialized by any worker serve the rest, and concurrent
  /// identical segments attach to one in-flight compute. Thread-safe.
  pool::SubplanCache subplan_cache_;
  std::chrono::steady_clock::time_point start_tp_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue/pause/stop transitions
  std::deque<std::shared_ptr<QueryHandle::Task>> queue_;
  bool paused_ = false;
  bool stop_ = false;
  uint64_t next_sequence_ = 0;  ///< admission order; seeds fault injection

  // Aggregates (guarded by mu_).
  ServiceStats stats_;
  /// Completed-query latency distribution. A bounded log-scale histogram —
  /// NOT a per-query vector — so a long serve run's memory stays constant;
  /// the reported p50/p95/p99 are the histogram's interpolated quantiles
  /// (tests check them against exact percentiles).
  obs::Histogram latency_histogram_{obs::HistogramOptions::LatencyMs()};
  std::vector<FinishedRecord> finished_;
  std::vector<std::pair<int64_t, std::string>> rejected_log_;  ///< (ns, name)

  // Metrics handles (null without ServiceOptions::metrics). Outcome counters
  // are indexed by QueryOutcome; per-class latency histograms are fetched
  // lazily per new query class under mu_. Callback-gauge ids are removed in
  // Shutdown(), before anything they capture dies.
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* gave_up_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
  obs::Counter* outcome_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Histogram* latency_metric_ = nullptr;
  std::map<std::string, obs::Histogram*> class_latency_metrics_;
  std::vector<uint64_t> callback_ids_;

  std::vector<std::thread> workers_;
};

}  // namespace service
}  // namespace gpl

#endif  // GPL_SERVICE_QUERY_SERVICE_H_

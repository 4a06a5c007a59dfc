#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "shard/sharded_executor.h"
#include "trace/trace.h"

namespace gpl {
namespace service {

namespace {

const char* OutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kTimedOut:
      return "timed_out";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

}  // namespace

std::string ServiceStats::ToString() const {
  std::ostringstream out;
  out << "submitted=" << submitted << " admitted=" << admitted
      << " rejected=" << rejected << " completed=" << completed
      << " timed_out=" << timed_out << " cancelled=" << cancelled
      << " failed=" << failed << " queue_depth=" << queue_depth
      << " max_queue_depth=" << max_queue_depth << " p50_latency_ms=";
  out.precision(3);
  out << std::fixed << p50_latency_ms << " p95_latency_ms=" << p95_latency_ms
      << " p99_latency_ms=" << p99_latency_ms
      << " total_simulated_ms=" << total_simulated_ms
      << " tuning_cache_hits=" << tuning_cache_hits
      << " tuning_cache_misses=" << tuning_cache_misses
      << " subplan_cache_hits=" << subplan_cache_hits
      << " subplan_cache_misses=" << subplan_cache_misses
      << " subplan_attaches=" << subplan_attaches
      << " subplan_evictions=" << subplan_evictions
      << " subplan_bytes=" << subplan_bytes
      << " subplan_entries=" << subplan_entries
      << " queries_with_cache_hits=" << queries_with_cache_hits
      << " retries=" << retries << " degraded=" << degraded
      << " gave_up=" << gave_up;
  if (!device_busy_ms.empty()) {
    out << " exchange_bytes=" << exchange_bytes << " device_busy_ms=[";
    for (size_t i = 0; i < device_busy_ms.size(); ++i) {
      if (i > 0) out << ",";
      out << device_busy_ms[i];
    }
    out << "]";
  }
  return out.str();
}

/// Shared state of one submission: the slot the worker publishes the result
/// into and the synchronization for Await(). The task owns the query's
/// CancelToken so cancellation works whether the task is queued, running, or
/// already finished.
struct QueryHandle::Task {
  std::string name;
  LogicalQuery query;
  CancelToken token;
  int64_t submit_ns = 0;
  /// Admission order, assigned under the service lock. Seeds the per-attempt
  /// fault injector and backoff jitter, so a query's fault/retry schedule is
  /// a function of (fault seed, admission order) — not of which worker picks
  /// it up or when.
  uint64_t sequence = 0;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  /// Result<T> has no default constructor, hence optional for "not yet".
  std::optional<Result<QueryResult>> result;
};

void QueryHandle::Cancel() {
  if (task_ != nullptr) task_->token.RequestCancel();
}

bool QueryHandle::Done() const {
  if (task_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(task_->mu);
  return task_->done;
}

const Result<QueryResult>& QueryHandle::Await() {
  if (task_ == nullptr) {
    // A default-constructed or moved-from handle has no submission to wait
    // for; blocking (or dereferencing task_) would be a bug in the caller.
    static const Result<QueryResult> kInvalidHandle{Status::FailedPrecondition(
        "Await() on an invalid QueryHandle (default-constructed or "
        "moved-from; no query was submitted through it)")};
    return kInvalidHandle;
  }
  std::unique_lock<std::mutex> lock(task_->mu);
  task_->cv.wait(lock, [&] { return task_->done; });
  return *task_->result;
}

QueryService::QueryService(const tpch::Database* db, ServiceOptions options)
    : db_(db),
      options_(std::move(options)),
      calibration_(model::CalibrationTable::Run(
          sim::Simulator(options_.engine.device))),
      subplan_cache_([&] {
        pool::SubplanCacheOptions subplan_options;
        subplan_options.capacity_bytes =
            std::max<int64_t>(0, options_.subplan_cache_mb) * 1024 * 1024;
        return subplan_options;
      }()),
      start_tp_(std::chrono::steady_clock::now()) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  // Traces cannot be shared across workers; the service exports its own
  // timeline instead (ExportTrace). Likewise a FaultInjector is mutable
  // per-execution state: RunTask builds one per attempt from options_.fault.
  options_.engine.exec.trace = nullptr;
  options_.engine.exec.fault = nullptr;
  options_.engine.calibration = &calibration_;
  // One tuning cache for all workers (TuningCache is thread-safe): whichever
  // worker tunes a segment first spares the rest the grid search.
  options_.engine.tuning_cache = &tuning_cache_;
  // One subplan cache for all workers (SubplanCache is thread-safe): data
  // materialized by any worker serves the rest, and identical concurrent
  // leaf scans batch onto one in-flight compute. Sharded services keep it
  // off — shard engines run over per-shard partitions, so whole-database
  // entries would be unsound there (the engine also nulls it for leaves).
  const bool sharded_exec = Engine::IsShardedExec(options_.engine.exec);
  options_.engine.subplan_cache =
      options_.subplan_cache && !sharded_exec ? &subplan_cache_ : nullptr;
  options_.engine.metrics = &metrics_;

  admitted_counter_ = metrics_.GetCounter("gpl_service_admission_total",
                                          "Admission decisions by result",
                                          {{"result", "admitted"}});
  rejected_counter_ = metrics_.GetCounter("gpl_service_admission_total",
                                          "Admission decisions by result",
                                          {{"result", "rejected"}});
  for (const QueryOutcome outcome :
       {QueryOutcome::kCompleted, QueryOutcome::kTimedOut,
        QueryOutcome::kCancelled, QueryOutcome::kFailed}) {
    outcome_counters_[static_cast<int>(outcome)] = metrics_.GetCounter(
        "gpl_service_queries_total", "Finished queries by outcome",
        {{"outcome", OutcomeName(outcome)}});
  }
  retries_counter_ = metrics_.GetCounter(
      "gpl_service_retries_total",
      "Re-execution attempts beyond each query's first");
  gave_up_counter_ = metrics_.GetCounter(
      "gpl_service_gave_up_total",
      "Transient errors that exhausted the retry budget");
  degraded_counter_ = metrics_.GetCounter(
      "gpl_service_degraded_total",
      "Completed queries with at least one degraded segment");
  cache_hit_queries_counter_ = metrics_.GetCounter(
      "gpl_service_queries_with_cache_hits_total",
      "Completed queries with at least one subplan-cache hit");
  queue_depth_gauge_ = metrics_.GetGauge("gpl_service_queue_depth",
                                         "Queries waiting for a worker");
  max_queue_depth_gauge_ = metrics_.GetGauge(
      "gpl_service_max_queue_depth", "High-water mark of the admission queue");
  running_gauge_ = metrics_.GetGauge("gpl_service_running",
                                     "Queries currently executing");
  simulated_ms_gauge_ = metrics_.GetGauge(
      "gpl_service_simulated_ms",
      "Simulated device time of completed queries (ms)");
  latency_histogram_ = metrics_.GetHistogram(
      "gpl_service_latency_ms",
      "Host wall-clock latency of completed queries (ms)",
      obs::HistogramOptions::LatencyMs());
  // Collect-time callback gauges over counters owned elsewhere. They capture
  // this service's caches and ThreadPool::Global(); the registry is a member
  // of the service, so nothing can collect it once those are gone.
  metrics_.AddCallbackGauge(
      "gpl_tuning_cache_hits", "Shared TuneSegment memo hits", {},
      [this] { return static_cast<double>(tuning_cache_.stats().hits); });
  metrics_.AddCallbackGauge(
      "gpl_tuning_cache_misses", "Shared TuneSegment memo misses", {},
      [this] { return static_cast<double>(tuning_cache_.stats().misses); });
  const auto pool_gauge = [this](const char* name, const char* help,
                                 uint64_t ThreadPoolStats::*field) {
    metrics_.AddCallbackGauge(name, help, {}, [field] {
      return static_cast<double>(ThreadPool::Global().stats().*field);
    });
  };
  pool_gauge("gpl_threadpool_tasks_submitted",
             "Tasks submitted to the global host pool",
             &ThreadPoolStats::tasks_submitted);
  pool_gauge("gpl_threadpool_tasks_executed",
             "Tasks executed by the global host pool",
             &ThreadPoolStats::tasks_executed);
  pool_gauge("gpl_threadpool_steals", "Tasks stolen from another worker's deque",
             &ThreadPoolStats::steals);
  if (options_.engine.subplan_cache != nullptr) {
    subplan_cache_.RegisterGauges(&metrics_, "gpl_subplan");
  }

  if (sharded_exec) {
    // Partition once; every worker's ShardedExecutor reads the same shards.
    group_ = shard::DeviceGroup::ForExec(options_.engine.exec,
                                         options_.engine.device);
    shard::PartitionOptions partition;
    partition.num_shards = group_.size();
    Result<shard::ShardedDatabase> sharded =
        shard::PartitionDatabase(*db_, partition);
    GPL_CHECK(sharded.ok()) << sharded.status().ToString();
    sharded_.emplace(sharded.take());
    // One calibration per distinct device name, shared across workers (the
    // table is immutable after Run).
    for (const sim::DeviceSpec& device : group_.devices) {
      if (shard_calibrations_.count(device.name) == 0) {
        shard_calibrations_.emplace(
            device.name,
            model::CalibrationTable::Run(sim::Simulator(device)));
      }
    }
    exchange_bytes_counters_ = {
        shard::ExchangeBytesCounter(&metrics_, "broadcast"),
        shard::ExchangeBytesCounter(&metrics_, "shuffle")};
    for (int i = 0; i < group_.size(); ++i) {
      slot_busy_gauges_.push_back(shard::SlotBusyGauge(
          &metrics_, i, group_.devices[static_cast<size_t>(i)].name));
    }

    // Workers ride the unified Engine::Execute surface with the sharding
    // shape of their default ExecOptions; the shared pre-partitioned
    // database and per-device calibrations go in EngineOptions, so no
    // worker re-partitions or re-calibrates.
    options_.engine.sharded_db = &*sharded_;
    options_.engine.device_calibrations = &shard_calibrations_;
  }

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  GPL_SLOG(Info, "service")
      .Field("workers", options_.num_workers)
      .Field("queue_capacity", options_.queue_capacity)
      << "QueryService started";
}

QueryService::~QueryService() { Shutdown(); }

int64_t QueryService::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_tp_)
      .count();
}

Result<QueryHandle> QueryService::Submit(std::string name, LogicalQuery query,
                                         double timeout_ms) {
  auto task = std::make_shared<QueryHandle::Task>();
  task->name = std::move(name);
  task->query = std::move(query);
  task->submit_ns = NowNs();
  const double timeout = timeout_ms > 0.0 ? timeout_ms
                                          : options_.default_timeout_ms;
  if (timeout > 0.0) task->token.SetDeadlineAfterMs(timeout);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= options_.queue_capacity) {
      rejected_counter_->Increment();
      Record record;
      record.name = task->name;
      record.rejected = true;
      record.submit_ns = task->submit_ns;
      RecordLocked(std::move(record));
      if (stop_) return Status::Unavailable("QueryService is shut down");
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.queue_capacity) + "), query '" + task->name +
          "' rejected");
    }
    admitted_counter_->Increment();
    task->sequence = next_sequence_++;
    queue_.push_back(task);
    const double depth = static_cast<double>(queue_.size());
    queue_depth_gauge_->Set(depth);
    max_queue_depth_gauge_->Set(
        std::max(max_queue_depth_gauge_->Value(), depth));
  }
  work_cv_.notify_one();
  return QueryHandle(std::move(task));
}

void QueryService::RecordLocked(Record record) {
  if (recent_.size() < kRecentRecords) {
    recent_.push_back(std::move(record));
    return;
  }
  recent_[recent_next_] = std::move(record);
  recent_next_ = (recent_next_ + 1) % kRecentRecords;
}

void QueryService::WorkerLoop(int worker_index) {
  // Each worker owns a private Engine (engines are not thread-safe); all of
  // them share the database, the shards, the calibrations and the tuning
  // cache. Sharded and single-device services run through the same
  // Engine::Execute surface — the sharding shape rides the default
  // ExecOptions set up at construction, and the engine lazily builds its
  // ShardedExecutor over the service's shared partitioned database.
  auto engine = std::make_unique<Engine>(db_, options_.engine);
  ExecuteFn execute = [&engine](const LogicalQuery& query,
                                const ExecOptions& exec) {
    return engine->Execute(query, exec);
  };

  for (;;) {
    std::shared_ptr<QueryHandle::Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ ? true : (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (stop_) return;
        continue;  // woken by Resume() with nothing to do
      }
      // On shutdown the queue is still drained: queued queries were admitted
      // and owe their submitters a result (possibly kDeadlineExceeded).
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      running_gauge_->Add(1.0);
    }
    RunTask(worker_index, execute, task);
    work_cv_.notify_all();
  }
}

void QueryService::RunTask(int worker_index, const ExecuteFn& execute,
                           const std::shared_ptr<QueryHandle::Task>& task) {
  const int64_t start_ns = NowNs();

  const RetryPolicy& retry = options_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  // Backoff jitter from its own deterministic stream (salted so it never
  // collides with an attempt's fault stream).
  Random jitter_rng(sim::FaultInjector::AttemptSeed(
      options_.fault.seed ^ 0x6a09e667f3bcc909ULL, task->sequence, 0));

  std::optional<Result<QueryResult>> result;
  std::vector<std::pair<int64_t, int64_t>> attempt_spans;
  int attempts = 0;
  bool gave_up = false;

  for (int attempt = 0;; ++attempt) {
    // Deadline/cancellation check before dispatching to the engine: a query
    // whose deadline expired while queued — or while backing off between
    // retries — short-circuits here instead of starting another execution.
    if (Status admission = task->token.Check(); !admission.ok()) {
      result.emplace(std::move(admission));
      break;
    }

    ExecOptions exec = options_.engine.exec;
    exec.cancel = &task->token;
    std::optional<sim::FaultInjector> injector;
    if (options_.fault.enabled()) {
      sim::FaultConfig config = options_.fault;
      config.seed = sim::FaultInjector::AttemptSeed(options_.fault.seed,
                                                    task->sequence, attempt);
      injector.emplace(std::move(config));
      exec.fault = &*injector;
    }

    const int64_t attempt_start = NowNs();
    ++attempts;
    result.emplace(execute(task->query, exec));
    attempt_spans.emplace_back(attempt_start, NowNs());

    // Only transient device errors are retryable; everything else (including
    // kChannelAllocFailed that survived degradation) is final.
    if (result->ok() ||
        result->status().code() != StatusCode::kTransientDeviceError) {
      break;
    }
    if (attempt + 1 >= max_attempts) {
      gave_up = true;
      GPL_SLOG(Info, "service")
          .Field("query", task->name)
          .Field("attempts", attempts)
          << "giving up: " << result->status().ToString();
      break;
    }
    double backoff_ms =
        retry.initial_backoff_ms * std::pow(retry.backoff_multiplier, attempt);
    if (retry.max_backoff_ms > 0.0) {
      backoff_ms = std::min(backoff_ms, retry.max_backoff_ms);
    }
    if (retry.jitter_fraction > 0.0) {
      backoff_ms *=
          1.0 + retry.jitter_fraction * (2.0 * jitter_rng.NextDouble() - 1.0);
    }
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }

  const int64_t end_ns = NowNs();

  Record record;
  record.name = task->name;
  record.worker = worker_index;
  record.submit_ns = task->submit_ns;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.attempts = attempts;
  record.attempt_spans = std::move(attempt_spans);
  bool degraded = false;
  bool cache_hit = false;
  if (result->ok()) {
    const QueryMetrics& m = (*result)->metrics;
    record.outcome = QueryOutcome::kCompleted;
    record.simulated_ms = m.elapsed_ms;
    record.exchange_bytes = m.exchange_bytes;
    record.device_elapsed_ms = m.device_elapsed_ms;
    degraded = m.degraded_segments > 0;
    cache_hit = m.subplan_cache_hits > 0;
  } else {
    switch (result->status().code()) {
      case StatusCode::kDeadlineExceeded:
        record.outcome = QueryOutcome::kTimedOut;
        break;
      case StatusCode::kCancelled:
        record.outcome = QueryOutcome::kCancelled;
        break;
      default:
        record.outcome = QueryOutcome::kFailed;
        break;
    }
    GPL_SLOG(Info, "service").Field("query", task->name)
        << "did not complete: " << result->status().ToString();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    running_gauge_->Add(-1.0);
    if (attempts > 1) {
      retries_counter_->Increment(static_cast<uint64_t>(attempts - 1));
    }
    if (gave_up) gave_up_counter_->Increment();
    outcome_counters_[static_cast<int>(record.outcome)]->Increment();
    if (record.outcome == QueryOutcome::kCompleted) {
      if (degraded) degraded_counter_->Increment();
      if (cache_hit) cache_hit_queries_counter_->Increment();
      const double latency_ms =
          static_cast<double>(end_ns - task->submit_ns) / 1e6;
      latency_histogram_->Observe(latency_ms);
      // Per-class latency series, keyed by the query's own name so the
      // label set stays as small as the set of distinct queries; the handle
      // is cached under mu_ so steady state never locks the registry.
      obs::Histogram*& by_class = class_latency_histograms_[task->query.name];
      if (by_class == nullptr) {
        by_class = metrics_.GetHistogram(
            "gpl_service_class_latency_ms",
            "Host wall-clock latency by query class (ms)",
            obs::HistogramOptions::LatencyMs(),
            {{"class", task->query.name}});
      }
      by_class->Observe(latency_ms);
      simulated_ms_gauge_->Add(record.simulated_ms);
    }
    RecordLocked(std::move(record));
  }

  // Publish the result last: once done flips, Await() returns and the
  // submitter may immediately read Stats() expecting this query counted.
  {
    std::lock_guard<std::mutex> lock(task->mu);
    task->result = std::move(result);
    task->done = true;
  }
  task->cv.notify_all();
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot;
  snapshot.admitted = admitted_counter_->Value();
  snapshot.rejected = rejected_counter_->Value();
  snapshot.submitted = snapshot.admitted + snapshot.rejected;
  const auto outcomes = [this](QueryOutcome outcome) {
    return outcome_counters_[static_cast<int>(outcome)]->Value();
  };
  snapshot.completed = outcomes(QueryOutcome::kCompleted);
  snapshot.timed_out = outcomes(QueryOutcome::kTimedOut);
  snapshot.cancelled = outcomes(QueryOutcome::kCancelled);
  snapshot.failed = outcomes(QueryOutcome::kFailed);
  snapshot.queue_depth = queue_.size();
  snapshot.running = static_cast<size_t>(running_gauge_->Value());
  snapshot.max_queue_depth =
      static_cast<uint64_t>(max_queue_depth_gauge_->Value());
  // Histogram quantiles (bounded memory), not exact order statistics: within
  // one bucket width (~12%) of the exact percentile of the same sample.
  const obs::HistogramSnapshot latency = latency_histogram_->Snapshot();
  snapshot.p50_latency_ms = latency.Quantile(0.50);
  snapshot.p95_latency_ms = latency.Quantile(0.95);
  snapshot.p99_latency_ms = latency.Quantile(0.99);
  snapshot.total_simulated_ms = simulated_ms_gauge_->Value();
  const model::TuningCacheStats cache_stats = tuning_cache_.stats();
  snapshot.tuning_cache_hits = cache_stats.hits;
  snapshot.tuning_cache_misses = cache_stats.misses;
  const pool::SubplanCacheStats subplan = subplan_cache_.stats();
  snapshot.subplan_cache_hits = subplan.hits;
  snapshot.subplan_cache_misses = subplan.misses;
  snapshot.subplan_attaches = subplan.attaches;
  snapshot.subplan_evictions = subplan.evictions;
  snapshot.subplan_bytes = subplan.bytes;
  snapshot.subplan_entries = subplan.entries;
  snapshot.queries_with_cache_hits = cache_hit_queries_counter_->Value();
  snapshot.retries = retries_counter_->Value();
  snapshot.degraded = degraded_counter_->Value();
  snapshot.gave_up = gave_up_counter_->Value();
  for (const obs::Counter* bytes : exchange_bytes_counters_) {
    snapshot.exchange_bytes += bytes->Value();
  }
  for (const obs::Gauge* busy : slot_busy_gauges_) {
    snapshot.device_busy_ms.push_back(busy->Value());
  }
  return snapshot;
}

void QueryService::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
    paused_ = false;  // a paused service still drains on shutdown
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  GPL_SLOG(Info, "service") << "QueryService stopped: " << Stats().ToString();
}

void QueryService::ExportTrace(trace::TraceCollector* collector) const {
  if (collector == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);

  // The ring oldest first, split into finished queries and rejections.
  std::vector<const Record*> records;
  std::vector<const Record*> rejections;
  for (size_t i = 0; i < recent_.size(); ++i) {
    const Record& record = recent_[(recent_next_ + i) % recent_.size()];
    (record.rejected ? rejections : records).push_back(&record);
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const Record* a, const Record* b) {
                     return a->start_ns < b->start_ns;
                   });

  // Host nanoseconds as "cycles": the collector's default clock of 1000 MHz
  // divides by 1000, rendering the timeline in microseconds.
  for (const Record* r : records) {
    const Record& record = *r;
    const int track =
        collector->TrackId("worker " + std::to_string(record.worker));
    if (record.start_ns > record.submit_ns) {
      collector->AddSpan(track, record.name + " (queued)", "service.queue",
                         static_cast<double>(record.submit_ns),
                         static_cast<double>(record.start_ns));
    }
    std::vector<trace::Arg> args = {
        {"outcome", std::string("\"") + OutcomeName(record.outcome) + "\""},
        {"simulated_ms", std::to_string(record.simulated_ms)},
        {"attempts", std::to_string(record.attempts)}};
    if (!record.device_elapsed_ms.empty()) {
      args.emplace_back("shards",
                        std::to_string(record.device_elapsed_ms.size()));
      args.emplace_back("exchange_bytes",
                        std::to_string(record.exchange_bytes));
    }
    collector->AddSpan(track, record.name, "service.exec",
                       static_cast<double>(record.start_ns),
                       static_cast<double>(record.end_ns), std::move(args));
    // A retried query gets one nested span per engine execution; the gaps
    // between them are retry backoff.
    if (record.attempts > 1) {
      for (size_t a = 0; a < record.attempt_spans.size(); ++a) {
        collector->AddSpan(track,
                           record.name + " (attempt " + std::to_string(a + 1) +
                               "/" + std::to_string(record.attempts) + ")",
                           "service.retry",
                           static_cast<double>(record.attempt_spans[a].first),
                           static_cast<double>(record.attempt_spans[a].second));
      }
    }
  }

  // Concurrency level over time, from start/end edges.
  std::vector<std::pair<int64_t, int>> edges;
  edges.reserve(records.size() * 2);
  for (const Record* record : records) {
    edges.emplace_back(record->start_ns, +1);
    edges.emplace_back(record->end_ns, -1);
  }
  std::sort(edges.begin(), edges.end());
  int running = 0;
  for (const auto& [t_ns, delta] : edges) {
    running += delta;
    collector->AddCounter("service.running", static_cast<double>(t_ns),
                          static_cast<double>(running));
  }

  if (!rejections.empty()) {
    const int track = collector->TrackId("admission");
    for (const Record* record : rejections) {
      collector->AddInstant(track, record->name + " rejected",
                            "service.admission",
                            static_cast<double>(record->submit_ns));
    }
  }
}

}  // namespace service
}  // namespace gpl

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

/// Query class for per-class latency series: the submission-name prefix
/// before '#' ("Q5#37" -> "Q5"; a name without '#' is its own class).
std::string QueryClass(const std::string& name) {
  const size_t hash = name.find('#');
  return hash == std::string::npos ? name : name.substr(0, hash);
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
    out << "] device_queries=[";
    for (size_t i = 0; i < device_queries.size(); ++i) {
      if (i > 0) out << ",";
      out << device_queries[i];
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
  options_.engine.subplan_cache =
      options_.subplan_cache && options_.num_shards <= 1 ? &subplan_cache_
                                                         : nullptr;
  if (options_.engine.metrics == nullptr) {
    options_.engine.metrics = options_.metrics;
  }

  if (obs::MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    admitted_counter_ = metrics->GetCounter(
        "gpl_service_admission_total", "Admission decisions by result",
        {{"result", "admitted"}});
    rejected_counter_ = metrics->GetCounter(
        "gpl_service_admission_total", "Admission decisions by result",
        {{"result", "rejected"}});
    const char* help = "Finished queries by outcome";
    outcome_counters_[static_cast<int>(QueryOutcome::kCompleted)] =
        metrics->GetCounter("gpl_service_queries_total", help,
                            {{"outcome", "completed"}});
    outcome_counters_[static_cast<int>(QueryOutcome::kTimedOut)] =
        metrics->GetCounter("gpl_service_queries_total", help,
                            {{"outcome", "timed_out"}});
    outcome_counters_[static_cast<int>(QueryOutcome::kCancelled)] =
        metrics->GetCounter("gpl_service_queries_total", help,
                            {{"outcome", "cancelled"}});
    outcome_counters_[static_cast<int>(QueryOutcome::kFailed)] =
        metrics->GetCounter("gpl_service_queries_total", help,
                            {{"outcome", "failed"}});
    retries_counter_ = metrics->GetCounter(
        "gpl_service_retries_total",
        "Re-execution attempts beyond each query's first");
    gave_up_counter_ = metrics->GetCounter(
        "gpl_service_gave_up_total",
        "Transient errors that exhausted the retry budget");
    degraded_counter_ = metrics->GetCounter(
        "gpl_service_degraded_total",
        "Completed queries with at least one degraded segment");
    queue_depth_gauge_ = metrics->GetGauge("gpl_service_queue_depth",
                                           "Queries waiting for a worker");
    running_gauge_ = metrics->GetGauge("gpl_service_running",
                                       "Queries currently executing");
    latency_metric_ = metrics->GetHistogram(
        "gpl_service_latency_ms",
        "Host wall-clock latency of completed queries (ms)",
        obs::HistogramOptions::LatencyMs());
    // Collect-time callback gauges over counters owned elsewhere. They
    // capture `this`/ThreadPool::Global(); Shutdown() deregisters them
    // before the service (and its tuning cache) is destroyed.
    callback_ids_.push_back(metrics->AddCallbackGauge(
        "gpl_tuning_cache_hits", "Shared TuneSegment memo hits", {},
        [this] { return static_cast<double>(tuning_cache_.stats().hits); }));
    callback_ids_.push_back(metrics->AddCallbackGauge(
        "gpl_tuning_cache_misses", "Shared TuneSegment memo misses", {},
        [this] { return static_cast<double>(tuning_cache_.stats().misses); }));
    callback_ids_.push_back(metrics->AddCallbackGauge(
        "gpl_threadpool_tasks_submitted",
        "Tasks submitted to the global host pool", {}, [] {
          return static_cast<double>(ThreadPool::Global().stats().tasks_submitted);
        }));
    callback_ids_.push_back(metrics->AddCallbackGauge(
        "gpl_threadpool_tasks_executed",
        "Tasks executed by the global host pool", {}, [] {
          return static_cast<double>(ThreadPool::Global().stats().tasks_executed);
        }));
    callback_ids_.push_back(metrics->AddCallbackGauge(
        "gpl_threadpool_steals",
        "Tasks stolen from another worker's deque", {}, [] {
          return static_cast<double>(ThreadPool::Global().stats().steals);
        }));
    if (options_.engine.subplan_cache != nullptr) {
      const std::vector<uint64_t> subplan_ids =
          subplan_cache_.RegisterGauges(metrics, "gpl_subplan");
      callback_ids_.insert(callback_ids_.end(), subplan_ids.begin(),
                           subplan_ids.end());
    }
  }

  if (options_.num_shards > 1) {
    // Partition once; every worker's ShardedExecutor reads the same shards.
    if (options_.devices.empty()) {
      group_ = shard::DeviceGroup::Homogeneous(options_.engine.device,
                                               options_.num_shards,
                                               options_.link);
    } else {
      GPL_CHECK(static_cast<int>(options_.devices.size()) ==
                options_.num_shards)
          << "ServiceOptions::devices has " << options_.devices.size()
          << " entries but num_shards=" << options_.num_shards;
      group_.devices = options_.devices;
      group_.link = options_.link;
    }
    shard::PartitionOptions partition;
    partition.num_shards = options_.num_shards;
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
    stats_.device_busy_ms.assign(static_cast<size_t>(options_.num_shards),
                                 0.0);
    stats_.device_queries.assign(static_cast<size_t>(options_.num_shards), 0);

    // Workers ride the unified Engine::Execute surface: the shared
    // pre-partitioned database and per-device calibrations go in
    // EngineOptions (so no worker re-partitions or re-calibrates), and the
    // sharding shape goes in the default ExecOptions (so every execution
    // routes through the engine's ShardedExecutor).
    options_.engine.sharded_db = &*sharded_;
    options_.engine.device_calibrations = &shard_calibrations_;
    options_.engine.exec.shards = options_.num_shards;
    options_.engine.exec.device_list = group_.devices;
    options_.engine.exec.link_gbps = options_.link.gbytes_per_sec;
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
    stats_.submitted++;
    if (stop_) {
      stats_.rejected++;
      obs::Inc(rejected_counter_);
      rejected_log_.emplace_back(task->submit_ns, task->name);
      return Status::Unavailable("QueryService is shut down");
    }
    if (queue_.size() >= options_.queue_capacity) {
      stats_.rejected++;
      obs::Inc(rejected_counter_);
      rejected_log_.emplace_back(task->submit_ns, task->name);
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.queue_capacity) + "), query '" + task->name +
          "' rejected");
    }
    stats_.admitted++;
    obs::Inc(admitted_counter_);
    task->sequence = next_sequence_++;
    queue_.push_back(task);
    obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
    stats_.max_queue_depth =
        std::max<uint64_t>(stats_.max_queue_depth, queue_.size());
  }
  work_cv_.notify_one();
  return QueryHandle(std::move(task));
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
      stats_.running++;
      obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
      obs::Set(running_gauge_, static_cast<double>(stats_.running));
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

  FinishedRecord record;
  record.name = task->name;
  record.worker = worker_index;
  record.submit_ns = task->submit_ns;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.attempts = attempts;
  record.attempt_spans = std::move(attempt_spans);
  if (result->ok()) {
    record.outcome = QueryOutcome::kCompleted;
    record.simulated_ms = (*result)->metrics.elapsed_ms;
    record.degraded = (*result)->metrics.degraded_segments > 0;
    record.subplan_hits = (*result)->metrics.subplan_cache_hits;
    record.subplan_misses = (*result)->metrics.subplan_cache_misses;
    record.exchange_bytes = (*result)->metrics.exchange_bytes;
    record.device_elapsed_ms = (*result)->metrics.device_elapsed_ms;
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
    stats_.running--;
    obs::Set(running_gauge_, static_cast<double>(stats_.running));
    if (attempts > 1) {
      stats_.retries += static_cast<uint64_t>(attempts - 1);
      obs::Inc(retries_counter_, static_cast<uint64_t>(attempts - 1));
    }
    if (gave_up) {
      stats_.gave_up++;
      obs::Inc(gave_up_counter_);
    }
    obs::Inc(outcome_counters_[static_cast<int>(record.outcome)]);
    switch (record.outcome) {
      case QueryOutcome::kCompleted: {
        stats_.completed++;
        if (record.degraded) {
          stats_.degraded++;
          obs::Inc(degraded_counter_);
        }
        if (record.subplan_hits > 0) stats_.queries_with_cache_hits++;
        const double latency_ms =
            static_cast<double>(end_ns - task->submit_ns) / 1e6;
        latency_histogram_.Observe(latency_ms);
        obs::Observe(latency_metric_, latency_ms);
        if (options_.metrics != nullptr) {
          // Per-class latency series, fetched once per new class (the handle
          // is cached under mu_ so steady state never locks the registry).
          const std::string query_class = QueryClass(task->name);
          obs::Histogram*& h = class_latency_metrics_[query_class];
          if (h == nullptr) {
            h = options_.metrics->GetHistogram(
                "gpl_service_class_latency_ms",
                "Host wall-clock latency by query class (ms)",
                obs::HistogramOptions::LatencyMs(),
                {{"class", query_class}});
          }
          h->Observe(latency_ms);
        }
        stats_.total_simulated_ms += record.simulated_ms;
        // Per-device-slot load (whole-group placement: every device of the
        // worker's group ran a shard of this query).
        stats_.exchange_bytes +=
            static_cast<uint64_t>(record.exchange_bytes);
        for (size_t i = 0; i < record.device_elapsed_ms.size() &&
                           i < stats_.device_busy_ms.size();
             ++i) {
          stats_.device_busy_ms[i] += record.device_elapsed_ms[i];
          stats_.device_queries[i] += 1;
        }
        break;
      }
      case QueryOutcome::kTimedOut:
        stats_.timed_out++;
        break;
      case QueryOutcome::kCancelled:
        stats_.cancelled++;
        break;
      case QueryOutcome::kFailed:
        stats_.failed++;
        break;
    }
    finished_.push_back(std::move(record));
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
  ServiceStats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  // Histogram quantiles (bounded memory), not exact order statistics: within
  // one bucket width (~12%) of the exact percentile of the same sample.
  const obs::HistogramSnapshot latency = latency_histogram_.Snapshot();
  snapshot.p50_latency_ms = latency.Quantile(0.50);
  snapshot.p95_latency_ms = latency.Quantile(0.95);
  snapshot.p99_latency_ms = latency.Quantile(0.99);
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
  // The callback gauges capture this service; the registry may outlive it,
  // so deregister before returning (the destructor funnels through here).
  if (options_.metrics != nullptr) {
    for (const uint64_t id : callback_ids_) {
      options_.metrics->RemoveCallback(id);
    }
    callback_ids_.clear();
  }
  GPL_SLOG(Info, "service") << "QueryService stopped: " << Stats().ToString();
}

void QueryService::ExportTrace(trace::TraceCollector* collector) const {
  if (collector == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);

  // Host nanoseconds as "cycles": the collector's default clock of 1000 MHz
  // divides by 1000, rendering the timeline in microseconds.
  std::vector<FinishedRecord> records = finished_;
  std::sort(records.begin(), records.end(),
            [](const FinishedRecord& a, const FinishedRecord& b) {
              return a.start_ns < b.start_ns;
            });

  for (const FinishedRecord& record : records) {
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
  for (const FinishedRecord& record : records) {
    edges.emplace_back(record.start_ns, +1);
    edges.emplace_back(record.end_ns, -1);
  }
  std::sort(edges.begin(), edges.end());
  int running = 0;
  for (const auto& [t_ns, delta] : edges) {
    running += delta;
    collector->AddCounter("service.running", static_cast<double>(t_ns),
                          static_cast<double>(running));
  }

  if (!rejected_log_.empty()) {
    const int track = collector->TrackId("admission");
    for (const auto& [t_ns, name] : rejected_log_) {
      collector->AddInstant(track, name + " rejected", "service.admission",
                            static_cast<double>(t_ns));
    }
  }
}

}  // namespace service
}  // namespace gpl

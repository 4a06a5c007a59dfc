#include "service/query_service.h"

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "obs/export.h"
#include "queries/tpch_queries.h"
#include "test_util.h"
#include "trace/trace.h"

namespace gpl {
namespace {

using service::QueryHandle;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceStats;
using testing_util::ExpectCountersBitIdentical;
using testing_util::ExpectTablesBitIdentical;
using testing_util::SmallDb;

/// Bit-level table equality: raw physical buffers, not a tolerance compare.
/// Execution is simulated, so concurrency must not change a single bit.
/// The core service guarantee: N queries through a concurrent QueryService
/// produce results bit-identical to a serial Engine — same tables, same
/// HwCounters, same simulated times. Only host wall-clock may differ.
TEST(QueryServiceTest, ConcurrentResultsMatchSerialBitIdentical) {
  const tpch::Database& db = SmallDb();

  // Workload: the evaluation suite, twice over (queries interleave and
  // repeat across workers).
  std::vector<std::pair<std::string, LogicalQuery>> workload;
  for (int round = 0; round < 2; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      workload.emplace_back(name + "#" + std::to_string(round), query);
    }
  }

  // Serial baseline.
  Engine engine(&db, EngineOptions{});
  std::vector<QueryResult> serial;
  serial.reserve(workload.size());
  for (auto& [name, query] : workload) {
    Result<QueryResult> result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    serial.push_back(result.take());
  }

  // Concurrent run: all queries in flight at once on 4 workers.
  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = workload.size();
  QueryService service(&db, options);
  std::vector<QueryHandle> handles;
  for (auto& [name, query] : workload) {
    Result<QueryHandle> submitted = service.Submit(name, query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }

  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(workload[i].first);
    const Result<QueryResult>& result = handles[i].Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesBitIdentical(serial[i].table, result->table);
    ExpectCountersBitIdentical(serial[i].metrics.counters,
                               result->metrics.counters);
    EXPECT_EQ(serial[i].metrics.elapsed_ms, result->metrics.elapsed_ms);
    EXPECT_EQ(serial[i].metrics.predicted_ms, result->metrics.predicted_ms);
  }

  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, workload.size());
  EXPECT_EQ(stats.completed, workload.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.p95_latency_ms, 0.0);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
  EXPECT_GE(stats.p99_latency_ms, stats.p95_latency_ms);
}

TEST(QueryServiceTest, RejectsWhenAdmissionQueueFull) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  QueryService service(&db, options);
  // Paused workers never pop, so the queue fills deterministically.
  service.Pause();

  const LogicalQuery q6 = queries::Q6();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 2; ++i) {
    Result<QueryHandle> submitted =
        service.Submit("q6#" + std::to_string(i), q6);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  Result<QueryHandle> rejected = service.Submit("q6#overflow", q6);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);

  service.Resume();
  for (QueryHandle& handle : handles) {
    EXPECT_TRUE(handle.Await().ok());
  }
  stats = service.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

TEST(QueryServiceTest, ExpiredDeadlineReportsDeadlineExceeded) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(&db, options);
  service.Pause();

  // An (effectively) already-expired deadline: the first cancellation check
  // fires before any segment executes, so the outcome is deterministic.
  Result<QueryHandle> submitted =
      service.Submit("q6-deadline", queries::Q6(), /*timeout_ms=*/1e-6);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  service.Resume();

  QueryHandle handle = submitted.take();
  const Result<QueryResult>& result = handle.Await();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(QueryServiceTest, CancelledQueryReportsCancelled) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(&db, options);
  service.Pause();

  Result<QueryHandle> submitted = service.Submit("q6-cancel", queries::Q6());
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  QueryHandle handle = submitted.take();
  handle.Cancel();  // still queued — unwinds before the first segment
  service.Resume();

  const Result<QueryResult>& result = handle.Await();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  service.Shutdown();
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

// Percentile (the exact oracle in test_util.h) interpolates linearly between
// the two closest order statistics — these values pin that contract, which
// the histogram quantile tests rely on.
TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(testing_util::Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(testing_util::Percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(testing_util::Percentile({7.0}, 95.0), 7.0);
  // p50 of two samples is their midpoint, not either sample (nearest-rank
  // would return 2.0 here).
  EXPECT_DOUBLE_EQ(testing_util::Percentile({1.0, 2.0}, 50.0), 1.5);
  // 1..100: rank = 0.95 * 99 = 94.05 -> 95 + 0.05 * (96 - 95).
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i + 1.0;
  EXPECT_DOUBLE_EQ(testing_util::Percentile(v, 50.0), 50.5);
  EXPECT_DOUBLE_EQ(testing_util::Percentile(v, 95.0), 95.05);
  EXPECT_DOUBLE_EQ(testing_util::Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(testing_util::Percentile(v, 100.0), 100.0);
  // Input order is irrelevant (the sample is sorted internally).
  EXPECT_DOUBLE_EQ(testing_util::Percentile({2.0, 1.0}, 50.0), 1.5);
}

TEST(QueryHandleTest, AwaitOnInvalidHandleReturnsFailedPrecondition) {
  QueryHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.Done());
  const Result<QueryResult>& result = invalid.Await();  // must not block
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  invalid.Cancel();  // no-op, must not crash
}

TEST(QueryHandleTest, MovedFromHandleAwaitsSafely) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(&db, options);

  Result<QueryHandle> submitted = service.Submit("q6", queries::Q6());
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  QueryHandle handle = submitted.take();
  QueryHandle stolen = std::move(handle);
  // The moved-from handle is invalid but safe; the new one still works.
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.Await().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(stolen.Await().ok());
  service.Shutdown();
}

/// Queries whose deadline expires while still queued short-circuit to
/// kDeadlineExceeded without ever reaching an engine — a saturated queue
/// must not burn worker time executing queries nobody is waiting for.
TEST(QueryServiceTest, QueuedDeadlineShortCircuitsBeforeExecution) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  QueryService service(&db, options);
  service.Pause();  // saturate: nothing dispatches until Resume

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    Result<QueryHandle> submitted = service.Submit(
        "q5#" + std::to_string(i), queries::Q5(), /*timeout_ms=*/1e-6);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  service.Resume();

  for (QueryHandle& handle : handles) {
    const Result<QueryResult>& result = handle.Await();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.timed_out, handles.size());
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(QueryServiceTest, SubmitAfterShutdownIsUnavailable) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(&db, options);
  service.Shutdown();

  Result<QueryHandle> submitted = service.Submit("late", queries::Q6());
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
}

/// Concurrent workers with morsel-parallel kernels (host_threads=2) on top:
/// two layers of host parallelism, still bit-identical to a serial Engine.
TEST(QueryServiceTest, HostParallelWorkersBitIdenticalToSerial) {
  const tpch::Database& db = SmallDb();

  EngineOptions serial_options;
  serial_options.exec.host_threads = 1;
  Engine engine(&db, serial_options);
  std::vector<std::pair<std::string, QueryResult>> serial;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    Result<QueryResult> result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    serial.emplace_back(name, result.take());
  }

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = serial.size();
  options.engine.exec.host_threads = 2;
  QueryService service(&db, options);
  std::vector<QueryHandle> handles;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    Result<QueryHandle> submitted = service.Submit(name, query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(serial[i].first);
    const Result<QueryResult>& result = handles[i].Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesBitIdentical(serial[i].second.table, result->table);
    ExpectCountersBitIdentical(serial[i].second.metrics.counters,
                               result->metrics.counters);
    EXPECT_EQ(serial[i].second.metrics.elapsed_ms,
              result->metrics.elapsed_ms);
  }
  service.Shutdown();
}

/// The shared tuning cache across workers: repeated submissions of the same
/// queries hit at steady state. Concurrent first-misses on one signature may
/// each run the search (benign, first insert wins), so misses are bounded by
/// unique-signatures * num_workers rather than exactly unique-signatures.
TEST(QueryServiceTest, SharedTuningCacheHitsAcrossWorkers) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  QueryService service(&db, options);

  constexpr int kRounds = 20;
  std::vector<QueryHandle> handles;
  for (int round = 0; round < kRounds; ++round) {
    for (const char* name : {"Q5", "Q14"}) {
      for (auto& [n, query] : queries::EvaluationSuite()) {
        if (n != name) continue;
        Result<QueryHandle> submitted =
            service.Submit(std::string(name) + "#" + std::to_string(round),
                           query);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        handles.push_back(submitted.take());
      }
    }
  }
  for (QueryHandle& handle : handles) {
    ASSERT_TRUE(handle.Await().ok());
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, handles.size());
  const uint64_t total = stats.tuning_cache_hits + stats.tuning_cache_misses;
  ASSERT_GT(total, 0u);
  // Unique signatures = the distinct segments of Q5 + Q14; every one may be
  // double-missed once per worker, everything else must hit.
  const uint64_t unique = service.tuning_cache().size();
  EXPECT_LE(stats.tuning_cache_misses,
            unique * static_cast<uint64_t>(options.num_workers));
  const double hit_rate =
      static_cast<double>(stats.tuning_cache_hits) /
      static_cast<double>(total);
  EXPECT_GE(hit_rate, 0.9) << stats.ToString();
  // The stats string surfaces the counters for CLIs/benches.
  EXPECT_NE(stats.ToString().find("tuning_cache_hits="), std::string::npos);
}

TEST(QueryServiceTest, ShutdownDrainsQueuedQueries) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  QueryService service(&db, options);
  service.Pause();

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 6; ++i) {
    Result<QueryHandle> submitted =
        service.Submit("q14#" + std::to_string(i), queries::Q14());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  // Shutdown() drains: admitted queries still owe their submitters results.
  service.Shutdown();
  for (QueryHandle& handle : handles) {
    EXPECT_TRUE(handle.Done());
    EXPECT_TRUE(handle.Await().ok());
  }
  EXPECT_EQ(service.Stats().completed, 6u);
}

TEST(QueryServiceTest, MetricsRegistryTracksOutcomesAndLatency) {
  const tpch::Database& db = SmallDb();
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(&db, options);

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 6; ++i) {
    Result<QueryHandle> h =
        service.Submit("Q5#" + std::to_string(i), queries::Q5());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.take());
  }
  for (QueryHandle& h : handles) ASSERT_TRUE(h.Await().ok());
  service.Shutdown();

  obs::MetricsRegistry& registry = service.metrics();
  EXPECT_EQ(registry
                .GetCounter("gpl_service_admission_total", "",
                            {{"result", "admitted"}})
                ->Value(),
            6u);
  EXPECT_EQ(registry
                .GetCounter("gpl_service_queries_total", "",
                            {{"outcome", "completed"}})
                ->Value(),
            6u);
  obs::Histogram* latency = registry.GetHistogram(
      "gpl_service_latency_ms", "", obs::HistogramOptions::LatencyMs());
  EXPECT_EQ(latency->TotalCount(), 6u);
  // Per-class fan-out: all six were Q5 submissions.
  obs::Histogram* by_class = registry.GetHistogram(
      "gpl_service_class_latency_ms", "", obs::HistogramOptions::LatencyMs(),
      {{"class", "Q5"}});
  EXPECT_EQ(by_class->TotalCount(), 6u);
  // ServiceStats reads the one latency histogram there is.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(latency->Quantile(0.5), stats.p50_latency_ms);
  // The simulator's per-device counters registered through the propagated
  // engine options and saw every kernel launch.
  EXPECT_GT(registry
                .GetCounter("gpl_sim_kernel_launches_total", "",
                            {{"device", options.engine.device.name}})
                ->Value(),
            0u);
}

/// Per-class latency series are keyed by LogicalQuery::name, not by the
/// submission name: fresh parameter draws of one query share one series.
TEST(QueryServiceTest, ClassLatencyKeyedByQueryName) {
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  QueryService service(&SmallDb(), options);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 50; ++i) {
    const double selectivity = 0.02 + 0.005 * i;
    Result<QueryHandle> h =
        service.Submit("Q14(s=" + std::to_string(selectivity) + ")",
                       queries::Q14(selectivity));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(h.take());
  }
  for (QueryHandle& h : handles) ASSERT_TRUE(h.Await().ok());
  service.Shutdown();

  size_t series = 0;
  for (const obs::FamilySnapshot& family : service.metrics().Collect()) {
    if (family.name != "gpl_service_class_latency_ms") continue;
    series = family.series.size();
    ASSERT_EQ(series, 1u);
    EXPECT_EQ(family.series[0].labels,
              (obs::Labels{{"class", "Q14"}}));
    EXPECT_EQ(family.series[0].histogram->count, 50u);
  }
  EXPECT_EQ(series, 1u);
}

/// Per-query records are a bounded ring: past kRecentRecords records,
/// ExportTrace renders only the most recent ones, while Stats() still counts
/// every submission.
TEST(QueryServiceTest, RecentRecordsStayBoundedPastCapacity) {
  constexpr size_t kCapacity = QueryService::kRecentRecords;
  constexpr size_t kQueue = 64;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = kQueue;
  QueryService service(&SmallDb(), options);
  const LogicalQuery q6 = queries::Q6();
  const auto count_events = [&service](size_t* exec_spans,
                                       size_t* rejections) {
    trace::TraceCollector collector;
    service.ExportTrace(&collector);
    *exec_spans = 0;
    for (const trace::SpanEvent& span : collector.spans()) {
      if (span.category == "service.exec") ++*exec_spans;
    }
    *rejections = collector.instants().size();
  };

  // An already-expired deadline finishes with 0 attempts, so going past the
  // capacity executes nothing. Whole batches are awaited before the next, so
  // none of these is rejected.
  const size_t expired = kCapacity + 100;
  std::vector<QueryHandle> batch;
  for (size_t i = 0; i < expired; ++i) {
    Result<QueryHandle> h =
        service.Submit("expired", q6, /*timeout_ms=*/1e-6);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    batch.push_back(h.take());
    if (batch.size() == kQueue || i + 1 == expired) {
      for (QueryHandle& handle : batch) {
        ASSERT_EQ(handle.Await().status().code(),
                  StatusCode::kDeadlineExceeded);
      }
      batch.clear();
    }
  }
  size_t exec_spans = 0;
  size_t rejections = 0;
  count_events(&exec_spans, &rejections);
  EXPECT_EQ(exec_spans, kCapacity);
  EXPECT_EQ(rejections, 0u);

  // Paused: fill the queue, then every further submission is rejected.
  service.Pause();
  for (size_t i = 0; i < kQueue; ++i) {
    Result<QueryHandle> h = service.Submit("queued", q6, /*timeout_ms=*/1e-6);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    batch.push_back(h.take());
  }
  const size_t rejected = kCapacity + 100;
  for (size_t i = 0; i < rejected; ++i) {
    ASSERT_EQ(service.Submit("overflow", q6).status().code(),
              StatusCode::kResourceExhausted);
  }
  service.Resume();
  for (QueryHandle& handle : batch) handle.Await();
  service.Shutdown();

  // The queued queries finished after every rejection, so they are the
  // newest kQueue records and rejections fill the rest of the ring.
  count_events(&exec_spans, &rejections);
  EXPECT_EQ(exec_spans, kQueue);
  EXPECT_EQ(rejections, kCapacity - kQueue);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, expired + kQueue + rejected);
  EXPECT_EQ(stats.timed_out, expired + kQueue);
  EXPECT_EQ(stats.rejected, rejected);
}

/// Stats() and the Prometheus exposition read the registry while workers
/// update it (run under TSan by scripts/check.sh).
TEST(QueryServiceTest, StatsAndExpositionReadWhileWorkersRun) {
  ServiceOptions options;
  options.num_workers = 3;
  options.queue_capacity = 64;
  QueryService service(&SmallDb(), options);
  std::atomic<bool> done{false};
  uint64_t last_completed = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const ServiceStats stats = service.Stats();
      EXPECT_GE(stats.completed, last_completed);
      EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
      last_completed = stats.completed;
      EXPECT_NE(obs::PrometheusText(service.metrics())
                    .find("gpl_service_queries_total"),
                std::string::npos);
    }
  });
  std::vector<QueryHandle> handles;
  for (int round = 0; round < 2; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      // No ASSERT while the reader runs: it must be joined.
      Result<QueryHandle> h = service.Submit(name, query);
      EXPECT_TRUE(h.ok()) << h.status().ToString();
      if (h.ok()) handles.push_back(h.take());
    }
  }
  for (QueryHandle& h : handles) EXPECT_TRUE(h.Await().ok());
  done.store(true);
  reader.join();
  service.Shutdown();
  EXPECT_EQ(service.Stats().completed, handles.size());
}

}  // namespace
}  // namespace gpl

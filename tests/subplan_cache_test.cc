/// End-to-end guarantees of the shared-work subplan cache: a hit must leave
/// every observable of the simulated execution — result tables, hardware
/// counters, simulated elapsed time — bit-identical to isolated, cache-less
/// execution, at every capacity (including 0) and under eviction churn.
#include "pool/subplan_cache.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "model/tuning_cache.h"
#include "queries/tpch_queries.h"
#include "service/query_service.h"
#include "test_util.h"

namespace gpl {
namespace {

using pool::SubplanCache;
using pool::SubplanCacheOptions;
using service::QueryHandle;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceStats;
using testing_util::ExpectTablesBitIdentical;
using testing_util::SmallDb;

void ExpectResultsBitIdentical(const QueryResult& expected,
                               const QueryResult& actual) {
  ExpectTablesBitIdentical(expected.table, actual.table);
  // Simulated timing must be exactly the cache-less value — a hit replays
  // the simulation, it does not skip it.
  EXPECT_EQ(expected.metrics.elapsed_ms, actual.metrics.elapsed_ms);
  EXPECT_EQ(expected.metrics.predicted_ms, actual.metrics.predicted_ms);
  EXPECT_EQ(expected.metrics.counters.elapsed_cycles,
            actual.metrics.counters.elapsed_cycles);
  EXPECT_EQ(expected.metrics.counters.compute_cycles,
            actual.metrics.counters.compute_cycles);
  EXPECT_EQ(expected.metrics.counters.mem_cycles,
            actual.metrics.counters.mem_cycles);
  EXPECT_EQ(expected.metrics.counters.cache_hits,
            actual.metrics.counters.cache_hits);
  EXPECT_EQ(expected.metrics.channel_bytes, actual.metrics.channel_bytes);
  EXPECT_EQ(expected.metrics.fused_segments, actual.metrics.fused_segments);
  EXPECT_EQ(expected.metrics.fused_launches_saved,
            actual.metrics.fused_launches_saved);
}

/// Isolated truth: a fresh cache-less engine per call.
QueryResult IsolatedTruth(const tpch::Database& db, const LogicalQuery& query,
                          EngineOptions options = EngineOptions{}) {
  options.subplan_cache = nullptr;
  Engine engine(&db, options);
  Result<QueryResult> result = engine.Execute(query);
  GPL_CHECK_OK(result.status());
  return result.take();
}

/// Runs over every GPL-family mode: a warm fused run replays the composed
/// timing of its fused groups from the cached per-stage observations.
TEST(SubplanCacheEngineTest, WarmHitsAreBitIdenticalToColdAndIsolated) {
  const tpch::Database& db = SmallDb();

  for (EngineMode mode :
       {EngineMode::kGpl, EngineMode::kGplNoCe, EngineMode::kFused}) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      SCOPED_TRACE(name + " mode=" + EngineModeName(mode));
      // Fresh cache per query so the cold run is genuinely cold (suite queries
      // share build sides, which would otherwise pre-warm it).
      SubplanCache cache(SubplanCacheOptions{});
      EngineOptions options;
      options.mode = mode;
      options.subplan_cache = &cache;
      Engine engine(&db, options);
      const QueryResult truth = IsolatedTruth(db, query, options);

      Result<QueryResult> cold = engine.Execute(query);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_EQ(cold->metrics.subplan_cache_hits, 0);
      EXPECT_GT(cold->metrics.subplan_cache_misses, 0);
      ExpectResultsBitIdentical(truth, *cold);

      Result<QueryResult> warm = engine.Execute(query);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      // Every cacheable segment hits on the repeat run.
      EXPECT_GT(warm->metrics.subplan_cache_hits, 0);
      EXPECT_EQ(warm->metrics.subplan_cache_misses, 0);
      ExpectResultsBitIdentical(truth, *warm);
      EXPECT_GT(cache.stats().hits, 0u);
    }
  }
}

TEST(SubplanCacheEngineTest, CapacityZeroMatchesIsolatedTruth) {
  const tpch::Database& db = SmallDb();
  SubplanCacheOptions cache_options;
  cache_options.capacity_bytes = 0;  // retention fully disabled
  SubplanCache cache(cache_options);
  EngineOptions options;
  options.subplan_cache = &cache;
  Engine engine(&db, options);

  for (int round = 0; round < 2; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      SCOPED_TRACE(name + "#" + std::to_string(round));
      Result<QueryResult> result = engine.Execute(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->metrics.subplan_cache_hits, 0);
      ExpectResultsBitIdentical(IsolatedTruth(db, query), *result);
    }
  }
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_GT(cache.stats().rejected, 0u);
}

/// A cache far too small for the working set churns through evictions; the
/// mix of hits, misses and re-misses must never change a result bit.
TEST(SubplanCacheEngineTest, EvictionHeavyScheduleMatchesIsolatedTruth) {
  const tpch::Database& db = SmallDb();
  SubplanCacheOptions cache_options;
  cache_options.capacity_bytes = 4 * SubplanCache::kPageBytes;  // 4 pages
  SubplanCache cache(cache_options);
  EngineOptions options;
  options.subplan_cache = &cache;
  Engine engine(&db, options);

  for (int round = 0; round < 3; ++round) {
    for (auto& [name, query] : queries::EvaluationSuite()) {
      SCOPED_TRACE(name + "#" + std::to_string(round));
      Result<QueryResult> result = engine.Execute(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultsBitIdentical(IsolatedTruth(db, query), *result);
    }
  }
  // The schedule actually exercised eviction (or rejection at minimum).
  const pool::SubplanCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions + stats.rejected, 0u);
}

TEST(SubplanCacheEngineTest, ExplainAnalyzeReportsPerSegmentOutcome) {
  const tpch::Database& db = SmallDb();
  SubplanCache cache(SubplanCacheOptions{});
  EngineOptions options;
  options.subplan_cache = &cache;
  Engine engine(&db, options);

  Result<ExplainAnalyzeReport> cold = ExplainAnalyze(engine, queries::Q14());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->ToString().find("cache: miss"), std::string::npos);
  EXPECT_NE(cold->ToString().find("subplan_cache: hits=0"),
            std::string::npos);

  Result<ExplainAnalyzeReport> warm = ExplainAnalyze(engine, queries::Q14());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_NE(warm->ToString().find("cache: hit"), std::string::npos);
  EXPECT_EQ(warm->ToString().find("cache: miss"), std::string::npos);
  EXPECT_GT(warm->metrics.subplan_cache_hits, 0);
  // The JSON report carries the same per-segment outcome.
  EXPECT_NE(warm->ToJson().find("\"subplan_cache\":\"hit\""),
            std::string::npos);
  // Simulated timing identical cold vs warm: the hit replays the simulation.
  EXPECT_EQ(cold->metrics.elapsed_ms, warm->metrics.elapsed_ms);
}

/// The service-owned cache across concurrent workers: a hot repeated mix
/// reaches warm steady state (the check.sh gate), every query stays
/// bit-identical to the serial cache-less baseline, and the per-query
/// outcome counters aggregate into ServiceStats.
TEST(SubplanCacheServiceTest, SharedCacheHitsAcrossWorkersBitIdentical) {
  const tpch::Database& db = SmallDb();

  std::vector<std::pair<std::string, LogicalQuery>> mix;
  for (int round = 0; round < 8; ++round) {
    for (const auto& [name, query] : queries::EvaluationSuite()) {
      if (name == "Q5" || name == "Q14") {
        mix.emplace_back(name + "#" + std::to_string(round), query);
      }
    }
  }

  std::vector<QueryResult> truth;
  truth.reserve(mix.size());
  for (auto& [name, query] : mix) truth.push_back(IsolatedTruth(db, query));

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = mix.size();
  QueryService service(&db, options);
  std::vector<QueryHandle> handles;
  for (auto& [name, query] : mix) {
    Result<QueryHandle> submitted = service.Submit(name, query);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(mix[i].first);
    const Result<QueryResult>& result = handles[i].Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectResultsBitIdentical(truth[i], *result);
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, mix.size());
  EXPECT_GE(stats.SubplanHitRate(), 0.8) << stats.ToString();
  // All but the first round of each query class had hits.
  EXPECT_GE(stats.queries_with_cache_hits, mix.size() - 2 * 4);
  // The page budget tracks exactly the retained bytes.
  const pool::PagePoolStats pages = service.subplan_cache().pool_stats();
  EXPECT_EQ(pages.payload_bytes, stats.subplan_bytes);
  EXPECT_GT(pages.used_pages, 0);
  EXPECT_EQ(pages.waste_bytes,
            pages.used_pages * pages.page_bytes - pages.payload_bytes);
  EXPECT_NE(stats.ToString().find("subplan_cache_hits="), std::string::npos);
}

/// Chaos overlap: concurrent repeats under fault injection with retries.
/// Fault-injected executions bypass the cache entirely (a retried kernel
/// abort must not publish partial state), so with faults on every query the
/// cache stays silent and result tables still match the isolated truth.
/// Simulated counters legitimately differ here — channel faults degrade
/// segments to kernel-at-a-time — so only the tables are compared.
TEST(SubplanCacheServiceTest, FaultInjectionBypassesCacheAndStaysExact) {
  const tpch::Database& db = SmallDb();
  const LogicalQuery q14 = queries::Q14();
  const QueryResult truth = IsolatedTruth(db, q14);

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.fault.seed = 0x5eedULL;
  options.fault.kernel_abort_rate = 0.05;
  options.fault.channel_alloc_fail_rate = 0.05;
  options.retry.max_attempts = 8;  // enough that every query eventually lands
  QueryService service(&db, options);

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 24; ++i) {
    Result<QueryHandle> submitted =
        service.Submit("q14#" + std::to_string(i), q14);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    handles.push_back(submitted.take());
  }
  int completed = 0;
  for (QueryHandle& handle : handles) {
    const Result<QueryResult>& result = handle.Await();
    if (!result.ok()) {
      // Only retry exhaustion is acceptable under injected faults.
      EXPECT_EQ(result.status().code(), StatusCode::kTransientDeviceError)
          << result.status().ToString();
      continue;
    }
    ++completed;
    ExpectTablesBitIdentical(truth.table, result->table);
  }
  service.Shutdown();
  ASSERT_GT(completed, 0);

  const ServiceStats stats = service.Stats();
  // The bypass is total: not one lookup, publish or attach happened.
  EXPECT_EQ(stats.subplan_cache_hits, 0u);
  EXPECT_EQ(stats.subplan_cache_misses, 0u);
  EXPECT_EQ(stats.subplan_attaches, 0u);
  EXPECT_EQ(stats.queries_with_cache_hits, 0u);
}

/// ServiceOptions::subplan_cache=false nulls the engine wiring: no cache
/// traffic, identical results.
TEST(SubplanCacheServiceTest, DisabledServiceMatchesIsolatedTruth) {
  const tpch::Database& db = SmallDb();
  const LogicalQuery q5 = queries::Q5();
  const QueryResult truth = IsolatedTruth(db, q5);

  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  options.subplan_cache = false;
  QueryService service(&db, options);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) {
    Result<QueryHandle> submitted =
        service.Submit("q5#" + std::to_string(i), q5);
    ASSERT_TRUE(submitted.ok());
    handles.push_back(submitted.take());
  }
  for (QueryHandle& handle : handles) {
    const Result<QueryResult>& result = handle.Await();
    ASSERT_TRUE(result.ok());
    ExpectResultsBitIdentical(truth, *result);
  }
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.subplan_cache_hits + stats.subplan_cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// TuningCache bounding (satellite of the subplan-cache work: the same
// eviction policy now bounds the tuning memo).
// ---------------------------------------------------------------------------

TEST(TuningCacheBoundingTest, EvictsPastMaxEntriesAndCountsBytes) {
  model::TuningCache cache(/*max_entries=*/4);
  model::TuningChoice choice;
  for (int i = 0; i < 10; ++i) {
    cache.Insert("seg-" + std::to_string(i), choice);
  }
  EXPECT_EQ(cache.size(), 4u);
  const model::TuningCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 6u);
  EXPECT_EQ(stats.entries, 4);
  EXPECT_GT(stats.bytes, 0);

  // The most recent insertions survived the LRU-windowed policy.
  EXPECT_TRUE(cache.Lookup("seg-9").has_value());
  EXPECT_FALSE(cache.Lookup("seg-0").has_value());

  cache.Clear();
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(TuningCacheBoundingTest, ReusedEntriesSurviveTheEvictionWindow) {
  model::TuningCache cache(/*max_entries=*/4);
  model::TuningChoice choice;
  for (int i = 0; i < 4; ++i) {
    cache.Insert("seg-" + std::to_string(i), choice);
  }
  // Heat up seg-0: repeated hits raise its score above its window peers.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cache.Lookup("seg-0").has_value());
  }
  cache.Insert("seg-new", choice);  // forces one eviction
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_TRUE(cache.Lookup("seg-0").has_value());  // hot entry kept
}

}  // namespace
}  // namespace gpl

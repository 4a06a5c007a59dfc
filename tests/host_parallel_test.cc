/// Determinism contract of the morsel-parallel primitives and the tuning
/// cache: ExecOptions::host_threads is purely a host-side knob. For every
/// query, engine mode and thread count, the result tables, hardware counters
/// and simulated times must be bit-identical to the serial (host_threads=1)
/// oracle path, and a tuning-cache hit must return exactly the choice a
/// fresh grid search would.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::ExpectCountersBitIdentical;
using testing_util::SmallDb;

void ExpectTablesBitIdentical(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (int64_t i = 0; i < expected.num_columns(); ++i) {
    SCOPED_TRACE("column " + expected.ColumnNameAt(i));
    EXPECT_EQ(expected.ColumnNameAt(i), actual.ColumnNameAt(i));
    const Column& e = expected.ColumnAt(i);
    const Column& a = actual.ColumnAt(i);
    ASSERT_EQ(e.type(), a.type());
    EXPECT_TRUE(e.data32() == a.data32());
    EXPECT_TRUE(e.data64() == a.data64());
    EXPECT_TRUE(e.dataf() == a.dataf());
  }
}

void ExpectChoicesIdentical(const model::TuningChoice& expected,
                            const model::TuningChoice& actual) {
  EXPECT_EQ(expected.params.tile_bytes, actual.params.tile_bytes);
  EXPECT_EQ(expected.params.workgroups, actual.params.workgroups);
  ASSERT_EQ(expected.params.channels.size(), actual.params.channels.size());
  for (size_t i = 0; i < expected.params.channels.size(); ++i) {
    EXPECT_EQ(expected.params.channels[i].num_channels,
              actual.params.channels[i].num_channels);
    EXPECT_EQ(expected.params.channels[i].packet_bytes,
              actual.params.channels[i].packet_bytes);
  }
  EXPECT_EQ(expected.estimate.total_cycles, actual.estimate.total_cycles);
}

/// Every query of the evaluation suite under every engine: host_threads in
/// {2, 8} must match the host_threads=1 oracle bit for bit.
TEST(HostParallelTest, AllEnginesBitIdenticalAcrossThreadCounts) {
  const tpch::Database& db = SmallDb();
  const auto suite = queries::EvaluationSuite();

  for (EngineMode mode :
       {EngineMode::kKbe, EngineMode::kGpl, EngineMode::kOcelot}) {
    EngineOptions options;
    options.mode = mode;
    options.exec.host_threads = 1;
    Engine serial_engine(&db, options);

    std::vector<QueryResult> serial;
    serial.reserve(suite.size());
    for (const auto& [name, query] : suite) {
      Result<QueryResult> result = serial_engine.Execute(query);
      ASSERT_TRUE(result.ok())
          << name << ": " << result.status().ToString();
      serial.push_back(result.take());
    }

    for (int threads : {2, 8}) {
      EngineOptions parallel_options = options;
      parallel_options.exec.host_threads = threads;
      Engine engine(&db, parallel_options);
      for (size_t q = 0; q < suite.size(); ++q) {
        SCOPED_TRACE(suite[q].first + " mode=" +
                     EngineModeName(mode) + " threads=" +
                     std::to_string(threads));
        Result<QueryResult> result = engine.Execute(suite[q].second);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectTablesBitIdentical(serial[q].table, result->table);
        ExpectCountersBitIdentical(serial[q].metrics.counters,
                                   result->metrics.counters);
        EXPECT_EQ(serial[q].metrics.elapsed_ms, result->metrics.elapsed_ms);
        EXPECT_EQ(serial[q].metrics.predicted_ms,
                  result->metrics.predicted_ms);
      }
    }
  }
}

/// The parallel tuner grid search picks exactly the same TuningChoice as the
/// serial search, segment by segment.
TEST(HostParallelTest, TunerChoicesIdenticalAcrossThreadCounts) {
  const tpch::Database& db = SmallDb();
  for (const auto& [name, query] : queries::EvaluationSuite()) {
    SCOPED_TRACE(name);
    EngineOptions options;
    options.mode = EngineMode::kGpl;
    options.exec.host_threads = 1;
    Engine serial_engine(&db, options);
    Result<PhysicalOpPtr> plan = serial_engine.Plan(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Result<GplRunResult> serial = serial_engine.ExecuteGplDetailed(*plan);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    EngineOptions parallel_options = options;
    parallel_options.exec.host_threads = 8;
    Engine engine(&db, parallel_options);
    Result<GplRunResult> parallel = engine.ExecuteGplDetailed(*plan);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    ASSERT_EQ(serial->segments.size(), parallel->segments.size());
    for (size_t s = 0; s < serial->segments.size(); ++s) {
      SCOPED_TRACE("segment " + std::to_string(s));
      ExpectChoicesIdentical(serial->segments[s].tuning,
                             parallel->segments[s].tuning);
    }
    EXPECT_EQ(serial->counters.elapsed_cycles,
              parallel->counters.elapsed_cycles);
  }
}

/// A cache hit returns exactly the choice the miss computed, and the result
/// is bit-identical to the cold run.
TEST(HostParallelTest, TuningCacheHitReturnsIdenticalChoice) {
  const tpch::Database& db = SmallDb();
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  Engine engine(&db, options);

  const LogicalQuery query = queries::Q5();
  Result<PhysicalOpPtr> plan = engine.Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Result<GplRunResult> cold = engine.ExecuteGplDetailed(*plan);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->tuning_cache_hits, 0);
  EXPECT_EQ(cold->tuning_cache_misses,
            static_cast<int>(cold->segments.size()));

  Result<GplRunResult> warm = engine.ExecuteGplDetailed(*plan);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->tuning_cache_hits,
            static_cast<int>(warm->segments.size()));
  EXPECT_EQ(warm->tuning_cache_misses, 0);

  ASSERT_EQ(cold->segments.size(), warm->segments.size());
  for (size_t s = 0; s < cold->segments.size(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    ExpectChoicesIdentical(cold->segments[s].tuning,
                           warm->segments[s].tuning);
  }
  ExpectTablesBitIdentical(cold->output, warm->output);
  EXPECT_EQ(cold->counters.elapsed_cycles, warm->counters.elapsed_cycles);
  EXPECT_EQ(engine.tuning_cache().stats().hits,
            static_cast<uint64_t>(warm->tuning_cache_hits));
}

/// --no-tuning-cache: the grid search reruns every segment and nothing is
/// counted against the cache.
TEST(HostParallelTest, DisabledCacheNeverCounts) {
  const tpch::Database& db = SmallDb();
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.exec.use_tuning_cache = false;
  Engine engine(&db, options);

  for (int round = 0; round < 2; ++round) {
    Result<QueryResult> result = engine.Execute(queries::Q14());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->metrics.tuning_cache_hits, 0);
    EXPECT_EQ(result->metrics.tuning_cache_misses, 0);
  }
  EXPECT_EQ(engine.tuning_cache().stats().hits, 0u);
  EXPECT_EQ(engine.tuning_cache().stats().misses, 0u);
  EXPECT_EQ(engine.tuning_cache().size(), 0u);
}

/// Pinned-knob runs (use_cost_model=false) bypass the tuner entirely — the
/// cache must stay untouched there too.
TEST(HostParallelTest, NoCostModelBypassesCache) {
  const tpch::Database& db = SmallDb();
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.exec.use_cost_model = false;
  options.exec.overrides.tile_bytes = 1 << 20;
  Engine engine(&db, options);
  Result<QueryResult> result = engine.Execute(queries::Q6());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.tuning_cache_hits, 0);
  EXPECT_EQ(result->metrics.tuning_cache_misses, 0);
  EXPECT_EQ(engine.tuning_cache().size(), 0u);
}

}  // namespace
}  // namespace gpl

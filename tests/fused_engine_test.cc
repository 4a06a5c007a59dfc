#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "queries/tpch_queries.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::MediumDb;
using testing_util::SmallDb;

/// Bit-level table equality: raw physical buffers, no tolerance. Fusion is a
/// pure execution-strategy change, so it must not move a single bit.
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

QueryResult RunMode(const tpch::Database& db, const LogicalQuery& query,
                    EngineMode mode, int host_threads, int shards) {
  EngineOptions options;
  options.mode = mode;
  options.exec.host_threads = host_threads;
  options.exec.shards = shards;
  Engine engine(&db, options);
  Result<QueryResult> result = engine.Execute(query);
  GPL_CHECK(result.ok()) << query.name << " under " << EngineModeName(mode)
                         << ": " << result.status().ToString();
  return result.take();
}

struct QueryCase {
  const char* label;
  LogicalQuery (*make)();
};

// Without this gtest prints the raw bytes of the struct, function pointers
// included, into the listed test name, so the name changed with address-space
// randomisation and binary layout.
void PrintTo(const QueryCase& qc, std::ostream* os) { *os << qc.label; }

LogicalQuery MakeQ14() { return queries::Q14(); }

const QueryCase kQueries[] = {
    {"Q5", queries::Q5},   {"Q7", queries::Q7}, {"Q8", queries::Q8},
    {"Q9", queries::Q9},   {"Q14", MakeQ14},
};

// ---- The oracle invariant: fused == KBE, bit for bit, at every thread and
// ---- shard count.

class FusedBitIdentityTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(FusedBitIdentityTest, MatchesKbeAcrossThreadsAndShards) {
  const QueryCase& qc = GetParam();
  const LogicalQuery query = qc.make();
  const QueryResult oracle =
      RunMode(SmallDb(), query, EngineMode::kKbe, /*host_threads=*/1,
              /*shards=*/1);
  for (int threads : {1, 8}) {
    for (int shards : {1, 4}) {
      SCOPED_TRACE(std::string(qc.label) + " threads=" +
                   std::to_string(threads) + " shards=" +
                   std::to_string(shards));
      const QueryResult fused =
          RunMode(SmallDb(), query, EngineMode::kFused, threads, shards);
      ExpectTablesBitIdentical(oracle.table, fused.table);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, FusedBitIdentityTest,
                         ::testing::ValuesIn(kQueries),
                         [](const ::testing::TestParamInfo<QueryCase>& info) {
                           return std::string(info.param.label);
                         });

// ---- Fusion must actually fire and be observable ----

TEST(FusedEngineTest, FusionFiresAndMetricsCount) {
  // At MediumDb volume the tuner picks fused chains for Q5 (established by
  // bench_fusion_ablation); the counters must reflect that.
  const QueryResult fused =
      RunMode(MediumDb(), queries::Q5(), EngineMode::kFused, 0, 1);
  EXPECT_GT(fused.metrics.fused_segments, 0);
  EXPECT_GT(fused.metrics.fused_launches_saved, 0);
  EXPECT_GT(fused.metrics.fused_bytes_avoided, 0);
}

TEST(FusedEngineTest, PinnedKnobsForceFusionWithoutCostModel) {
  // --tile/--wg pins disable the tuner; fused mode then force-fuses every
  // legal chain, so the counters must still be live.
  EngineOptions options;
  options.mode = EngineMode::kFused;
  options.exec.use_cost_model = false;
  options.exec.overrides.tile_bytes = MiB(1);
  Engine engine(&SmallDb(), options);
  Result<QueryResult> fused = engine.Execute(queries::Q5());
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_GT(fused->metrics.fused_segments, 0);
  EXPECT_GT(fused->metrics.fused_launches_saved, 0);

  const QueryResult oracle =
      RunMode(SmallDb(), queries::Q5(), EngineMode::kKbe, 1, 1);
  ExpectTablesBitIdentical(oracle.table, fused->table);
}

TEST(FusedEngineTest, NonFusedModesReportZeroFusion) {
  const QueryResult gpl =
      RunMode(SmallDb(), queries::Q5(), EngineMode::kGpl, 0, 1);
  EXPECT_EQ(gpl.metrics.fused_segments, 0);
  EXPECT_EQ(gpl.metrics.fused_launches_saved, 0);
  EXPECT_EQ(gpl.metrics.fused_bytes_avoided, 0);
}

TEST(FusedEngineTest, ShardedRunAggregatesFusionCounters) {
  const QueryResult single =
      RunMode(MediumDb(), queries::Q5(), EngineMode::kFused, 0, 1);
  const QueryResult sharded =
      RunMode(MediumDb(), queries::Q5(), EngineMode::kFused, 0, 4);
  ASSERT_GT(single.metrics.fused_segments, 0);
  // Each shard runs its own fused segments; the merged totals must count
  // all of them (not just one shard's).
  EXPECT_GE(sharded.metrics.fused_segments, single.metrics.fused_segments);
  EXPECT_GT(sharded.metrics.fused_launches_saved, 0);
}

// ---- EXPLAIN ANALYZE surface ----

TEST(FusedExplainAnalyzeTest, ReportsEngineAndFusionPerSegment) {
  EngineOptions options;
  options.mode = EngineMode::kFused;
  Engine engine(&MediumDb(), options);
  Result<ExplainAnalyzeReport> report = ExplainAnalyze(engine, queries::Q5());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  int fused_groups = 0;
  int launches_saved = 0;
  int64_t bytes_avoided = 0;
  bool saw_fused_engine = false;
  for (const SegmentReport& seg : report->segments) {
    if (seg.engine == model::SegmentEngine::kFused) {
      saw_fused_engine = true;
      EXPECT_GT(seg.fused_groups, 0);
      EXPECT_GT(seg.launches_saved, 0);
    } else {
      EXPECT_EQ(seg.fused_groups, 0);
    }
    fused_groups += seg.fused_groups > 0 ? 1 : 0;
    launches_saved += seg.launches_saved;
    bytes_avoided += seg.fused_bytes_avoided;
  }
  EXPECT_TRUE(saw_fused_engine) << "Q5 must fuse at least one segment";
  // Per-segment numbers must add up to the run totals.
  EXPECT_EQ(fused_groups, report->metrics.fused_segments);
  EXPECT_EQ(launches_saved, report->metrics.fused_launches_saved);
  EXPECT_EQ(bytes_avoided, report->metrics.fused_bytes_avoided);

  // The rendered tree and JSON both carry the fusion surface.
  const std::string text = report->ToString();
  EXPECT_NE(text.find("[fused]"), std::string::npos);
  EXPECT_NE(text.find("fusion:"), std::string::npos);
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"engine\":\"fused\""), std::string::npos);
  EXPECT_NE(json.find("\"launches_saved\""), std::string::npos);
}

TEST(FusedExplainAnalyzeTest, PredictedCyclesPresentForFusedSegments) {
  EngineOptions options;
  options.mode = EngineMode::kFused;
  Engine engine(&MediumDb(), options);
  Result<ExplainAnalyzeReport> report = ExplainAnalyze(engine, queries::Q5());
  ASSERT_TRUE(report.ok());
  for (const SegmentReport& seg : report->segments) {
    if (seg.engine != model::SegmentEngine::kFused) continue;
    EXPECT_GT(seg.predicted_cycles, 0.0);
    EXPECT_GT(seg.measured_cycles, 0.0);
  }
}

}  // namespace
}  // namespace gpl

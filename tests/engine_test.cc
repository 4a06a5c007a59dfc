#include <gtest/gtest.h>

#include "common/math_util.h"
#include "engine/engine.h"
#include "engine/explain_analyze.h"
#include "engine/ocelot_engine.h"
#include "trace/json.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::MediumDb;
using testing_util::SmallDb;

QueryResult MustExecute(const tpch::Database& db, EngineMode mode,
                        const LogicalQuery& query) {
  EngineOptions options;
  options.mode = mode;
  Engine engine(&db, options);
  Result<QueryResult> result = engine.Execute(query);
  GPL_CHECK(result.ok()) << EngineModeName(mode) << " failed: "
                         << result.status().ToString();
  return result.take();
}

TEST(EngineTest, ModeNames) {
  EXPECT_STREQ(EngineModeName(EngineMode::kKbe), "KBE");
  EXPECT_STREQ(EngineModeName(EngineMode::kGpl), "GPL");
  EXPECT_STREQ(EngineModeName(EngineMode::kGplNoCe), "GPL (w/o CE)");
  EXPECT_STREQ(EngineModeName(EngineMode::kOcelot), "Ocelot");
}

class AllModesTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, int>> {};

TEST_P(AllModesTest, ResultsMatchCpuReference) {
  const auto [mode, query_index] = GetParam();
  auto suite = queries::EvaluationSuite();
  const auto& [name, query] = suite[static_cast<size_t>(query_index)];

  Engine planner(&SmallDb(), EngineOptions{});
  Result<PhysicalOpPtr> plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok()) << name;
  Result<Table> expected = ref::ExecutePlan(SmallDb(), *plan);
  ASSERT_TRUE(expected.ok()) << name;

  const QueryResult result = MustExecute(SmallDb(), mode, query);
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(result.table, *expected, &diff))
      << EngineModeName(mode) << " on " << name << ": " << diff;
  EXPECT_GT(result.metrics.elapsed_ms, 0.0) << name;
}

std::string AllModesTestName(
    const ::testing::TestParamInfo<AllModesTest::ParamType>& info) {
  static const char* const kQueryNames[] = {"Q5", "Q7", "Q8", "Q9", "Q14"};
  std::string mode = EngineModeName(std::get<0>(info.param));
  for (char& c : mode) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return mode + "_" + kQueryNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndQueries, AllModesTest,
    ::testing::Combine(::testing::Values(EngineMode::kKbe, EngineMode::kGplNoCe,
                                         EngineMode::kGpl, EngineMode::kOcelot),
                       ::testing::Values(0, 1, 2, 3, 4)),
    AllModesTestName);

TEST(EngineComparisonTest, GplOutperformsKbeOnEveryQuery) {
  for (auto& [name, query] : queries::EvaluationSuite()) {
    const QueryResult kbe = MustExecute(MediumDb(), EngineMode::kKbe, query);
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    EXPECT_LT(gpl.metrics.elapsed_ms, kbe.metrics.elapsed_ms)
        << name << ": GPL must beat KBE";
  }
}

TEST(EngineComparisonTest, GplWithoutCeSlowerThanGpl) {
  // Tiling alone (no concurrent execution, no channels) loses the pipeline
  // benefit (Section 5.3.1).
  for (auto& [name, query] : queries::EvaluationSuite()) {
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    const QueryResult noce =
        MustExecute(MediumDb(), EngineMode::kGplNoCe, query);
    EXPECT_GT(noce.metrics.elapsed_ms, gpl.metrics.elapsed_ms) << name;
  }
}

TEST(EngineComparisonTest, GplMaterializesFractionOfKbe) {
  // Figure 17: 15-33% in the paper; we assert the direction with margin.
  for (auto& [name, query] : queries::EvaluationSuite()) {
    const QueryResult kbe = MustExecute(MediumDb(), EngineMode::kKbe, query);
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    ASSERT_GT(kbe.metrics.materialized_bytes, 0) << name;
    const double ratio =
        static_cast<double>(gpl.metrics.materialized_bytes) /
        static_cast<double>(kbe.metrics.materialized_bytes);
    EXPECT_LT(ratio, 0.6) << name;
  }
}

TEST(EngineComparisonTest, GplImprovesUtilization) {
  // Figure 19: higher VALU and memory utilization under GPL.
  for (auto& [name, query] : queries::EvaluationSuite()) {
    const QueryResult kbe = MustExecute(MediumDb(), EngineMode::kKbe, query);
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    EXPECT_GT(gpl.metrics.valu_busy, kbe.metrics.valu_busy) << name;
  }
}

TEST(EngineComparisonTest, GplImprovesCacheHitRatio) {
  // Section 5.3.2: ~27% cache-hit improvement for Q8.
  const QueryResult kbe =
      MustExecute(MediumDb(), EngineMode::kKbe, queries::Q8());
  const QueryResult gpl =
      MustExecute(MediumDb(), EngineMode::kGpl, queries::Q8());
  EXPECT_GT(gpl.metrics.cache_hit_ratio, kbe.metrics.cache_hit_ratio);
}

TEST(EngineComparisonTest, GplCommunicationShareLower) {
  // Figure 20: communication (mem + DC + delay) share of runtime is smaller
  // under GPL than under KBE. Q9 and Q14 show it most clearly at this
  // scale; Q8 (the paper's example) is asserted with a small margin since
  // launch overheads dominate at test-sized inputs.
  for (const LogicalQuery& query : {queries::Q9(), queries::Q14()}) {
    const QueryResult kbe = MustExecute(MediumDb(), EngineMode::kKbe, query);
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    EXPECT_LT(gpl.metrics.CommunicationFraction(),
              kbe.metrics.CommunicationFraction())
        << query.name;
  }
  const QueryResult kbe8 = MustExecute(MediumDb(), EngineMode::kKbe, queries::Q8());
  const QueryResult gpl8 = MustExecute(MediumDb(), EngineMode::kGpl, queries::Q8());
  EXPECT_LT(gpl8.metrics.CommunicationFraction(),
            kbe8.metrics.CommunicationFraction() + 0.05);
}

TEST(EngineComparisonTest, OcelotBetweenKbeAndGplOnSimpleQueries) {
  const QueryResult kbe =
      MustExecute(MediumDb(), EngineMode::kKbe, queries::Q14());
  const QueryResult ocelot =
      MustExecute(MediumDb(), EngineMode::kOcelot, queries::Q14());
  EXPECT_LT(ocelot.metrics.elapsed_ms, kbe.metrics.elapsed_ms);
}

TEST(OcelotHashTableCacheTest, ReusedEngineMatchesReferenceAcrossQueries) {
  // Ocelot keeps built hash tables across queries on one engine. A build is
  // reused only for the same build relation: Q8 builds over the same tables
  // and keys as Q7 with different filters and columns, and Q14/Q19 build
  // part with different projections.
  EngineOptions options;
  options.mode = EngineMode::kOcelot;
  Engine engine(&SmallDb(), options);
  Engine planner(&SmallDb(), EngineOptions{});
  for (const LogicalQuery& query :
       {queries::Q7(), queries::Q8(), queries::Q14(), queries::Q19()}) {
    Result<PhysicalOpPtr> plan = planner.Plan(query);
    ASSERT_TRUE(plan.ok()) << query.name;
    Result<Table> expected = ref::ExecutePlan(SmallDb(), *plan);
    ASSERT_TRUE(expected.ok()) << query.name;
    Result<QueryResult> result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << query.name << ": " << result.status().ToString();
    std::string diff;
    EXPECT_TRUE(ref::TablesEqual(result->table, *expected, &diff))
        << query.name << ": " << diff;
  }
}

TEST(EmptyAggregateTest, EmptyQ8KeepsGroupColumnTypes) {
  // With this dbgen seed Q8 selects no rows at SF 0.005. The empty result
  // must still type o_year as the reference does (int32), at every shard
  // count.
  tpch::DbgenConfig config;
  config.scale_factor = 0.005;
  config.seed = 20160626 + 207;
  const tpch::Database db = tpch::Generate(config);
  Engine planner(&db, EngineOptions{});
  Result<PhysicalOpPtr> plan = planner.Plan(queries::Q8());
  ASSERT_TRUE(plan.ok());
  Result<Table> expected = ref::ExecutePlan(db, *plan);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected->num_rows(), 0);
  for (EngineMode mode : {EngineMode::kKbe, EngineMode::kGpl, EngineMode::kFused}) {
    for (int shards : {1, 4}) {
      EngineOptions options;
      options.mode = mode;
      options.exec.shards = shards;
      Engine engine(&db, options);
      Result<QueryResult> result = engine.Execute(queries::Q8());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::string diff;
      EXPECT_TRUE(ref::TablesEqual(result->table, *expected, &diff))
          << EngineModeName(mode) << " shards=" << shards << ": " << diff;
    }
  }
}

TEST(EngineComparisonTest, GplBeatsOcelotOnComplexQueries) {
  // Figure 22: GPL significantly outperforms Ocelot on Q8 and Q9.
  for (const LogicalQuery& query : {queries::Q8(), queries::Q9()}) {
    const QueryResult ocelot =
        MustExecute(MediumDb(), EngineMode::kOcelot, query);
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    EXPECT_LT(gpl.metrics.elapsed_ms, ocelot.metrics.elapsed_ms) << query.name;
  }
}

TEST(EngineMetricsTest, PredictionPopulatedForGplOnly) {
  const QueryResult gpl =
      MustExecute(SmallDb(), EngineMode::kGpl, queries::Q14());
  EXPECT_GT(gpl.metrics.predicted_ms, 0.0);
  const QueryResult kbe =
      MustExecute(SmallDb(), EngineMode::kKbe, queries::Q14());
  EXPECT_DOUBLE_EQ(kbe.metrics.predicted_ms, 0.0);
}

TEST(EngineMetricsTest, ModelErrorIsBounded) {
  // Figure 11: small relative error in the GPL runtime estimate.
  for (auto& [name, query] : queries::EvaluationSuite()) {
    const QueryResult gpl = MustExecute(MediumDb(), EngineMode::kGpl, query);
    EXPECT_LT(gpl.metrics.RelativeError(), 0.35) << name;
  }
}

TEST(EngineMetricsTest, BreakdownSumsToElapsed) {
  const QueryResult gpl =
      MustExecute(SmallDb(), EngineMode::kGpl, queries::Q8());
  const QueryMetrics& m = gpl.metrics;
  EXPECT_NEAR(m.compute_ms + m.mem_ms + m.dc_ms + m.delay_ms + m.other_ms,
              m.elapsed_ms, 1e-6 * m.elapsed_ms);
}

TEST(EngineMetricsTest, OptimizeTimeRecordedAndSmall) {
  const QueryResult gpl =
      MustExecute(SmallDb(), EngineMode::kGpl, queries::Q8());
  EXPECT_GT(gpl.metrics.OptimizeWallMs(), 0.0);
  EXPECT_LT(gpl.metrics.OptimizeWallMs(), 50.0);
}

TEST(EngineTest, DeviceSelectionNvidia) {
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.device = sim::DeviceSpec::NvidiaK40();
  Engine engine(&SmallDb(), options);
  Result<QueryResult> result = engine.Execute(queries::Q14());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.elapsed_ms, 0.0);
}

TEST(EngineTest, ManualOverridesFlowThrough) {
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.exec.use_cost_model = false;
  options.exec.overrides.tile_bytes = MiB(2);
  options.exec.overrides.workgroups_per_kernel = 16;
  Engine engine(&SmallDb(), options);
  Result<GplRunResult> run =
      engine.ExecuteGplDetailed(*engine.Plan(queries::Q14()));
  ASSERT_TRUE(run.ok());
  for (const SegmentReport& report : run->segments) {
    EXPECT_EQ(report.tuning.params.tile_bytes, MiB(2));
    for (int wg : report.tuning.params.workgroups) EXPECT_EQ(wg, 16);
  }
}

TEST(TunerQualityTest, TunedRunCompetitiveWithPinnedSweep) {
  // The point of the cost model (Figures 12/15): its choice should land
  // near the best configuration in the manual sweep, without the sweep.
  const LogicalQuery query = queries::Q8();
  EngineOptions tuned_options;
  tuned_options.mode = EngineMode::kGpl;
  Engine tuned_engine(&MediumDb(), tuned_options);
  Result<QueryResult> tuned = tuned_engine.Execute(query);
  ASSERT_TRUE(tuned.ok());

  double best_pinned = 0.0;
  for (int64_t tile : {KiB(256), KiB(512), MiB(1), MiB(4), MiB(16)}) {
    EngineOptions options;
    options.mode = EngineMode::kGpl;
    options.exec.use_cost_model = false;
    options.exec.overrides.tile_bytes = tile;
    Engine engine(&MediumDb(), options);
    Result<QueryResult> r = engine.Execute(query);
    ASSERT_TRUE(r.ok());
    if (best_pinned == 0.0 || r->metrics.elapsed_ms < best_pinned) {
      best_pinned = r->metrics.elapsed_ms;
    }
  }
  EXPECT_LE(tuned->metrics.elapsed_ms, 1.25 * best_pinned)
      << "tuned run must be within 25% of the best pinned tile size";
}

TEST(TunerQualityTest, TunedBeatsWorstAllocations) {
  // An untuned, badly imbalanced allocation (the S1 setting of Figure 15)
  // must be clearly slower than the tuned run.
  const LogicalQuery query = queries::Q8();
  EngineOptions tuned_options;
  tuned_options.mode = EngineMode::kGpl;
  Engine tuned_engine(&MediumDb(), tuned_options);
  Result<QueryResult> tuned = tuned_engine.Execute(query);
  ASSERT_TRUE(tuned.ok());

  EngineOptions bad_options;
  bad_options.mode = EngineMode::kGpl;
  bad_options.exec.use_cost_model = false;
  bad_options.exec.overrides.workgroups_per_kernel = 2;  // S1
  Engine bad_engine(&MediumDb(), bad_options);
  Result<QueryResult> bad = bad_engine.Execute(query);
  ASSERT_TRUE(bad.ok());
  EXPECT_LT(tuned->metrics.elapsed_ms, bad->metrics.elapsed_ms);
}

TEST(OcelotFlavorTest, FlagsSet) {
  const KbeFlavor flavor = OcelotFlavor();
  EXPECT_TRUE(flavor.bitmap_selection);
  EXPECT_TRUE(flavor.cache_hash_tables);
  EXPECT_GT(flavor.scan_resident_fraction, 0.0);
}

// ---- EXPLAIN ANALYZE -----------------------------------------------------

TEST(ExplainAnalyzeTest, TotalsMatchExecutePlanMetricsExactly) {
  // EXPLAIN ANALYZE and ExecutePlan both go through FinalizeGplMetrics on
  // the same deterministic simulation, so every simulated-time field must be
  // bit-identical, and the per-segment cycles must sum to the total.
  const LogicalQuery query = queries::Q8();
  EngineOptions options;
  options.mode = EngineMode::kGpl;

  Engine engine(&SmallDb(), options);
  Result<ExplainAnalyzeReport> report = ExplainAnalyze(engine, query);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  Engine fresh(&SmallDb(), options);
  Result<QueryResult> executed = fresh.Execute(query);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();

  const QueryMetrics& a = report->metrics;
  const QueryMetrics& b = executed->metrics;
  EXPECT_EQ(a.counters.elapsed_cycles, b.counters.elapsed_cycles);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.predicted_ms, b.predicted_ms);
  EXPECT_EQ(a.channel_bytes, b.channel_bytes);
  EXPECT_EQ(a.materialized_bytes, b.materialized_bytes);
  EXPECT_EQ(a.degraded_segments, b.degraded_segments);
  EXPECT_EQ(report->output_rows, executed->table.num_rows());

  double segment_cycles = 0.0;
  for (const SegmentReport& seg : report->segments) {
    segment_cycles += seg.measured_cycles;
    EXPECT_FALSE(seg.observations.stages.empty()) << seg.description;
    // The last stage's observed output feeds the next segment or the final
    // table; every stage carries real (not estimated) cardinalities.
    for (const StageObservation& stage : seg.observations.stages) {
      EXPECT_GE(stage.rows_in, 0);
      EXPECT_GE(stage.bytes_in, 0);
    }
    EXPECT_GT(seg.measured_cycles, 0.0) << seg.description;
    EXPECT_GT(seg.predicted_cycles, 0.0) << seg.description;
    EXPECT_GE(seg.host_wall_ms, 0.0);
  }
  EXPECT_DOUBLE_EQ(segment_cycles, a.counters.elapsed_cycles);
}

TEST(ExplainAnalyzeTest, RendersTreeAndValidJson) {
  Engine engine(&SmallDb(), EngineOptions{});
  Result<ExplainAnalyzeReport> report =
      ExplainAnalyze(engine, queries::Q5());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::string text = report->ToString();
  EXPECT_NE(text.find("EXPLAIN ANALYZE query=Q5"), std::string::npos);
  EXPECT_NE(text.find("segment 0:"), std::string::npos);
  EXPECT_NE(text.find("cycles: actual="), std::string::npos);
  EXPECT_NE(text.find("totals: segments="), std::string::npos);

  const std::string json = report->ToJson();
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"actual_cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
}

TEST(ExplainAnalyzeTest, RejectsNonGplModes) {
  EngineOptions options;
  options.mode = EngineMode::kKbe;
  Engine engine(&SmallDb(), options);
  Result<ExplainAnalyzeReport> report =
      ExplainAnalyze(engine, queries::Q5());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnimplemented);
}

TEST(ExplainAnalyzeTest, ReportsTuningCacheHitsOnRepeatedSegments) {
  // A second run of the same query through the same engine hits the shared
  // tuning cache for every segment; the report must surface that.
  Engine engine(&SmallDb(), EngineOptions{});
  Result<ExplainAnalyzeReport> first =
      ExplainAnalyze(engine, queries::Q5());
  ASSERT_TRUE(first.ok());
  Result<ExplainAnalyzeReport> second =
      ExplainAnalyze(engine, queries::Q5());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->metrics.tuning_cache_misses, 0);
  for (const SegmentReport& seg : second->segments) {
    EXPECT_TRUE(seg.tuning_cache_hit) << seg.description;
  }
  // Simulated timing is unaffected by where the tuning choice came from.
  EXPECT_EQ(first->metrics.elapsed_ms, second->metrics.elapsed_ms);
}

}  // namespace
}  // namespace gpl

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/gpl_executor.h"
#include "core/pipeline.h"
#include "core/tiling.h"
#include "exec/expr.h"
#include "exec/primitives.h"
#include "plan/fusion.h"
#include "plan/segment.h"
#include "plan/selinger.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::SmallDb;

TEST(TilingTest, EmptyInputYieldsNoTiles) {
  EXPECT_TRUE(MakeTiles(0, 8, MiB(1)).empty());
}

TEST(TilingTest, SingleTileWhenInputFits) {
  const std::vector<TileRange> tiles = MakeTiles(100, 8, MiB(1));
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0].begin, 0);
  EXPECT_EQ(tiles[0].rows, 100);
}

TEST(TilingTest, TilesCoverInputExactly) {
  const std::vector<TileRange> tiles = MakeTiles(1000, 16, KiB(4));
  // 4096 / 16 = 256 rows per tile -> 4 tiles: 256+256+256+232.
  ASSERT_EQ(tiles.size(), 4u);
  int64_t covered = 0;
  for (size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(tiles[i].begin, covered);
    covered += tiles[i].rows;
  }
  EXPECT_EQ(covered, 1000);
  EXPECT_EQ(tiles.back().rows, 1000 - 3 * 256);
}

TEST(TilingTest, AtLeastOneRowPerTile) {
  // Row wider than the tile size: degenerate to one row per tile.
  const std::vector<TileRange> tiles = MakeTiles(5, 1024, 512);
  EXPECT_EQ(tiles.size(), 5u);
  for (const TileRange& t : tiles) EXPECT_EQ(t.rows, 1);
}

class GplFixture : public ::testing::Test {
 protected:
  GplFixture()
      : catalog_(Catalog::FromDatabase(SmallDb())),
        simulator_(sim::DeviceSpec::AmdA10()),
        calibration_(model::CalibrationTable::Run(simulator_)),
        executor_(&SmallDb(), &simulator_, &calibration_) {}

  SegmentedPlan Segments(const LogicalQuery& q) {
    Result<PhysicalOpPtr> plan = BuildPhysicalPlan(q, catalog_);
    GPL_CHECK(plan.ok());
    plan_ = *plan;
    Result<SegmentedPlan> segmented = SegmentPlan(plan_);
    GPL_CHECK(segmented.ok());
    return segmented.take();
  }

  Catalog catalog_;
  sim::Simulator simulator_;
  model::CalibrationTable calibration_;
  GplExecutor executor_;
  PhysicalOpPtr plan_;
};

TEST_F(GplFixture, FunctionalRunObservationsAreConsistent) {
  const SegmentedPlan plan = Segments(queries::ExampleQuery());
  const Segment& seg = plan.segments[0];
  Table input("lineitem");
  for (const std::string& col : seg.input_columns) {
    GPL_CHECK_OK(
        input.AddColumn(col, SmallDb().lineitem.GetColumn(col)));
  }
  Result<FunctionalRun> run = RunSegmentFunctional(seg, input, KiB(256));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->input_rows, input.num_rows());
  EXPECT_GT(run->num_tiles, 1);
  // Stage 0 consumes exactly the input.
  EXPECT_EQ(run->stages[0].rows_in, input.num_rows());
  // Rows flow: stage i+1 consumes what stage i produced.
  for (size_t s = 0; s + 1 < run->stages.size(); ++s) {
    EXPECT_EQ(run->stages[s + 1].rows_in, run->stages[s].rows_out)
        << "between stages " << s << " and " << s + 1;
  }
  // The example query ends in a single-row sum.
  EXPECT_EQ(run->output.num_rows(), 1);
}

TEST(PipelineTest, EmptyInputMakesNoTilesButKernelsSeeItsSchema) {
  Table input("t");
  GPL_CHECK_OK(input.AddColumn("k", Column(DataType::kInt32)));
  const auto expect_nothing_observed = [](const FunctionalRun& run) {
    EXPECT_EQ(run.num_tiles, 0);
    for (const StageObservation& s : run.stages) {
      EXPECT_EQ(s.rows_in, 0);
      EXPECT_EQ(s.bytes_in, 0);
      EXPECT_EQ(s.rows_out, 0);
      EXPECT_EQ(s.bytes_out, 0);
    }
  };

  // Filter + aggregate: nothing is observed, but the group column keeps the
  // input's int32 type instead of the int64 fallback.
  Segment aggregate;
  aggregate.stages.push_back({MakeFilterKernel(Gt(Col("k"), LitInt(0)))});
  aggregate.stages.push_back({MakeAggregateKernel(
      {{"k", Col("k")}}, {{AggSpec::kCount, nullptr, "n"}})});
  Result<FunctionalRun> run = RunSegmentFunctional(aggregate, input, KiB(256));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  expect_nothing_observed(*run);
  EXPECT_EQ(run->output.num_rows(), 0);
  ASSERT_TRUE(run->output.HasColumn("k"));
  EXPECT_EQ(run->output.GetColumn("k").type(), DataType::kInt32);

  // Hash build: the empty batch materializes no hash-table bytes.
  Segment build;
  build.output_is_hash_build = true;
  build.stages.push_back(
      {MakeHashBuildKernel({Col("k")}, std::make_shared<HashJoinState>())});
  run = RunSegmentFunctional(build, input, KiB(256));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  expect_nothing_observed(*run);
  EXPECT_EQ(build.stages[0].kernel->MaterializedStateBytes(), 0);
}

TEST_F(GplFixture, TileSizeDoesNotChangeResults) {
  const SegmentedPlan plan = Segments(queries::Q14());
  ExecOptions exec;
  exec.use_cost_model = false;
  exec.overrides.tile_bytes = KiB(256);
  Result<GplRunResult> small = executor_.Run(plan, EngineMode::kGpl, exec);
  ASSERT_TRUE(small.ok());
  exec.overrides.tile_bytes = MiB(16);
  Result<GplRunResult> large = executor_.Run(plan, EngineMode::kGpl, exec);
  ASSERT_TRUE(large.ok());
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(small->output, large->output, &diff)) << diff;
}

TEST_F(GplFixture, MatchesReferenceOnEveryQuery) {
  for (auto& [name, q] : queries::EvaluationSuite()) {
    const SegmentedPlan plan = Segments(q);
    Result<Table> expected = ref::ExecutePlan(SmallDb(), plan_);
    ASSERT_TRUE(expected.ok()) << name;
    Result<GplRunResult> run = executor_.Run(plan, EngineMode::kGpl, {});
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    std::string diff;
    EXPECT_TRUE(ref::TablesEqual(run->output, *expected, &diff))
        << name << ": " << diff;
  }
}

TEST_F(GplFixture, RunningTwiceIsIdempotent) {
  const SegmentedPlan plan = Segments(queries::Q5());
  Result<GplRunResult> first = executor_.Run(plan, EngineMode::kGpl, {});
  Result<GplRunResult> second = executor_.Run(plan, EngineMode::kGpl, {});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(first->output, second->output, &diff)) << diff;
  EXPECT_DOUBLE_EQ(first->counters.elapsed_cycles,
                   second->counters.elapsed_cycles);
}

TEST_F(GplFixture, ReportsOneEntryPerSegment) {
  const SegmentedPlan plan = Segments(queries::Q8());
  Result<GplRunResult> run = executor_.Run(plan, EngineMode::kGpl, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->segments.size(), plan.segments.size());
  for (const SegmentReport& report : run->segments) {
    EXPECT_GT(report.measured_cycles, 0.0);
    EXPECT_GT(report.predicted_cycles, 0.0);
    EXPECT_FALSE(report.description.empty());
  }
}

TEST_F(GplFixture, ConcurrentBeatsSequential) {
  const SegmentedPlan plan = Segments(queries::Q14());
  Result<GplRunResult> with_ce = executor_.Run(plan, EngineMode::kGpl, {});
  Result<GplRunResult> without_ce =
      executor_.Run(plan, EngineMode::kGplNoCe, {});
  ASSERT_TRUE(with_ce.ok());
  ASSERT_TRUE(without_ce.ok());
  EXPECT_LT(with_ce->counters.elapsed_cycles,
            without_ce->counters.elapsed_cycles);
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(with_ce->output, without_ce->output, &diff))
      << diff;
}

// Every GPL-family mode takes the same per-segment steps; the segment's
// engine alone picks the simulator path. Fused or not, the host runs a
// segment's stages the same way: with the cost model off both the fused and
// the noce mode tile at 1 MiB, so their outputs and per-stage observations
// must be equal.
TEST_F(GplFixture, SegmentEngineFollowsTheMode) {
  for (EngineMode kbe : {EngineMode::kKbe, EngineMode::kOcelot}) {
    EXPECT_EQ(executor_.Run(Segments(queries::Q6()), kbe, {}).status().code(),
              StatusCode::kInvalidArgument);
  }
  ExecOptions defaults;
  defaults.use_cost_model = false;  // the fused mode fuses every legal chain
  for (auto& [name, q] : queries::EvaluationSuite()) {
    SCOPED_TRACE(name);
    const SegmentedPlan plan = Segments(q);
    Result<GplRunResult> noce = executor_.Run(plan, EngineMode::kGplNoCe, {});
    Result<GplRunResult> gpl = executor_.Run(plan, EngineMode::kGpl, {});
    Result<GplRunResult> fused =
        executor_.Run(plan, EngineMode::kFused, defaults);
    Result<GplRunResult> noce_defaults =
        executor_.Run(plan, EngineMode::kGplNoCe, defaults);
    ASSERT_TRUE(noce.ok() && gpl.ok() && fused.ok() && noce_defaults.ok());
    ASSERT_EQ(noce->segments.size(), plan.segments.size());
    ASSERT_EQ(gpl->segments.size(), plan.segments.size());
    ASSERT_EQ(fused->segments.size(), plan.segments.size());
    ASSERT_EQ(noce_defaults->segments.size(), plan.segments.size());
    testing_util::ExpectTablesBitIdentical(noce_defaults->output,
                                           fused->output);

    int fusible_segments = 0;
    int fused_segments = 0;
    for (size_t i = 0; i < plan.segments.size(); ++i) {
      SCOPED_TRACE("segment " + std::to_string(i));
      std::string stages;
      for (const Stage& stage : plan.segments[i].stages) {
        if (!stages.empty()) stages += " -> ";
        stages += stage.kernel->name();
      }
      bool fusible = false;
      for (int size : PlanFusion(plan.segments[i])) fusible |= size > 1;
      fusible_segments += fusible ? 1 : 0;

      EXPECT_EQ(noce->segments[i].engine, model::SegmentEngine::kKernelAtATime);
      EXPECT_EQ(gpl->segments[i].engine, model::SegmentEngine::kGplChannel);
      EXPECT_EQ(fused->segments[i].engine,
                fusible ? model::SegmentEngine::kFused
                        : model::SegmentEngine::kGplChannel);
      if (fused->segments[i].engine == model::SegmentEngine::kFused) {
        ++fused_segments;
      }
      EXPECT_EQ(noce->segments[i].description, stages);
      EXPECT_EQ(gpl->segments[i].description, stages);
      if (!fusible) {
        EXPECT_EQ(fused->segments[i].description, stages);
      }

      const FunctionalRun& want = noce_defaults->segments[i].observations;
      const FunctionalRun& got = fused->segments[i].observations;
      EXPECT_EQ(got.input_rows, want.input_rows);
      EXPECT_EQ(got.input_bytes, want.input_bytes);
      EXPECT_EQ(got.num_tiles, want.num_tiles);
      ASSERT_EQ(got.stages.size(), want.stages.size());
      for (size_t s = 0; s < want.stages.size(); ++s) {
        SCOPED_TRACE("stage " + std::to_string(s));
        EXPECT_EQ(got.stages[s].rows_in, want.stages[s].rows_in);
        EXPECT_EQ(got.stages[s].bytes_in, want.stages[s].bytes_in);
        EXPECT_EQ(got.stages[s].rows_out, want.stages[s].rows_out);
        EXPECT_EQ(got.stages[s].bytes_out, want.stages[s].bytes_out);
      }
    }
    EXPECT_EQ(fused_segments, fusible_segments);
  }
}

// With the cost model on, the fused mode prices every real segment at or
// below the gpl mode's choice, takes the gpl choice unchanged where the
// fusion pass finds no chain, and reports fused groups exactly on the
// segments it runs with a fused engine.
TEST_F(GplFixture, FusedTunerNeverPricesAboveGpl) {
  int fused_picks = 0;
  for (auto& [name, q] : queries::EvaluationSuite()) {
    SCOPED_TRACE(name);
    const SegmentedPlan plan = Segments(q);
    Result<GplRunResult> gpl = executor_.Run(plan, EngineMode::kGpl, {});
    Result<GplRunResult> fused = executor_.Run(plan, EngineMode::kFused, {});
    ASSERT_TRUE(gpl.ok() && fused.ok());
    ASSERT_EQ(fused->segments.size(), gpl->segments.size());
    for (size_t i = 0; i < plan.segments.size(); ++i) {
      SCOPED_TRACE("segment " + std::to_string(i));
      const SegmentReport& want = gpl->segments[i];
      const SegmentReport& got = fused->segments[i];
      EXPECT_LE(got.predicted_cycles, want.predicted_cycles);
      bool fusible = false;
      for (int size : PlanFusion(plan.segments[i])) fusible |= size > 1;
      const bool fused_engine =
          got.engine == model::SegmentEngine::kFused ||
          got.engine == model::SegmentEngine::kFusedPipelined;
      EXPECT_EQ(got.fused_groups > 0, fused_engine);
      fused_picks += fused_engine ? 1 : 0;
      if (!fusible) {
        EXPECT_EQ(got.engine, model::SegmentEngine::kGplChannel);
        EXPECT_EQ(got.predicted_cycles, want.predicted_cycles);
        EXPECT_EQ(got.tuning.params.tile_bytes, want.tuning.params.tile_bytes);
        EXPECT_EQ(got.tuning.params.workgroups, want.tuning.params.workgroups);
        EXPECT_EQ(got.measured_cycles, want.measured_cycles);
      }
    }
  }
  EXPECT_GT(fused_picks, 0);
}

TEST_F(GplFixture, ChannelsCarryMostIntermediates) {
  const SegmentedPlan plan = Segments(queries::Q14());
  Result<GplRunResult> run = executor_.Run(plan, EngineMode::kGpl, {});
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->counters.bytes_via_channel, 0);
}

TEST_F(GplFixture, TunerChoiceRecorded) {
  const SegmentedPlan plan = Segments(queries::Q14());
  Result<GplRunResult> run = executor_.Run(plan, EngineMode::kGpl, {});
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->tuner_wall_ms, 0.0);
  for (const SegmentReport& report : run->segments) {
    EXPECT_GT(report.tuning.params.tile_bytes, 0);
    EXPECT_EQ(report.tuning.params.workgroups.size(),
              report.observations.stages.size());
  }
}

}  // namespace
}  // namespace gpl

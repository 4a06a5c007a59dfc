#include <gtest/gtest.h>

#include <cmath>

#include <chrono>

#include "common/math_util.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "model/plan_tuner.h"

namespace gpl {
namespace model {
namespace {

const sim::Simulator& AmdSim() {
  static const sim::Simulator* s = new sim::Simulator(sim::DeviceSpec::AmdA10());
  return *s;
}

const CalibrationTable& AmdCalibration() {
  static const CalibrationTable* t =
      new CalibrationTable(CalibrationTable::Run(AmdSim()));
  return *t;
}

TEST(CalibrationTest, GridIsComplete) {
  const CalibrationTable& t = AmdCalibration();
  EXPECT_EQ(t.points().size(), t.channel_grid().size() *
                                   t.packet_grid().size() *
                                   t.data_grid().size());
  for (const CalibrationPoint& p : t.points()) {
    EXPECT_GT(p.throughput_bytes_per_cycle, 0.0);
  }
}

TEST(CalibrationTest, NvidiaGridHasNoPacketDimension) {
  sim::Simulator nvidia(sim::DeviceSpec::NvidiaK40());
  const CalibrationTable t = CalibrationTable::Run(nvidia);
  EXPECT_EQ(t.packet_grid().size(), 1u);  // Eq. 11: Γ(n, d) only
}

TEST(CalibrationTest, MoreChannelsHelpUpToPortLimit) {
  const CalibrationTable& t = AmdCalibration();
  const int64_t d = 4096 * 1024 * 4;
  const double t1 = t.Throughput(1, 16, d);
  const double t8 = t.Throughput(8, 16, d);
  EXPECT_GT(t8, t1);
}

TEST(CalibrationTest, ThroughputVariesWithDataSize) {
  // The Figure 2 shape: throughput peaks at an interior data size (cache
  // capacity) rather than growing without bound.
  const CalibrationTable& t = AmdCalibration();
  double best_d = 0.0, best_tp = 0.0;
  for (int64_t d : t.data_grid()) {
    const double tp = t.Throughput(8, 16, d);
    if (tp > best_tp) {
      best_tp = tp;
      best_d = static_cast<double>(d);
    }
  }
  EXPECT_LT(best_d, static_cast<double>(t.data_grid().back()))
      << "largest size should thrash the cache";
}

TEST(CalibrationTest, BestConfigWithinSearchedGrid) {
  const CalibrationTable& t = AmdCalibration();
  const CalibrationTable::BestConfig best = t.Best(MiB(4));
  EXPECT_GE(best.config.num_channels, 1);
  EXPECT_LE(best.config.num_channels, 32);
  EXPECT_GT(best.throughput_bytes_per_cycle, 0.0);
}

TEST(CalibrationTest, LookupInterpolatesUnseenPoints) {
  const CalibrationTable& t = AmdCalibration();
  const double tp = t.Throughput(3, 24, 3 * 1000 * 1000);
  EXPECT_GT(tp, 0.0);
}

TEST(ProducerConsumerTest, TransfersAllData) {
  sim::ChannelConfig config;
  config.num_channels = 4;
  const sim::HwCounters r = RunProducerConsumer(AmdSim(), config, MiB(4));
  EXPECT_GT(r.elapsed_cycles, 0.0);
  EXPECT_EQ(r.bytes_via_channel, MiB(4));
}

// ---- Cost model ----

SegmentDesc TwoStageSegment(double rows, double lambda) {
  SegmentDesc desc;
  desc.input_bytes = rows * 8.0;
  StageDesc map;
  map.timing.name = "k_map";
  map.timing.compute_inst_per_row = 6.0;
  map.timing.mem_inst_per_row = 2.0;
  map.timing.private_bytes_per_item = 48;
  map.rows_in = rows;
  map.bytes_in = rows * 8.0;
  map.rows_out = rows * lambda;
  map.bytes_out = rows * lambda * 8.0;
  StageDesc reduce;
  reduce.timing.name = "k_reduce";
  reduce.timing.compute_inst_per_row = 8.0;
  reduce.timing.mem_inst_per_row = 2.0;
  reduce.timing.private_bytes_per_item = 96;
  reduce.rows_in = map.rows_out;
  reduce.bytes_in = map.bytes_out;
  reduce.rows_out = 1;
  reduce.bytes_out = 8;
  desc.stages = {map, reduce};
  return desc;
}

SegmentParams DefaultParams(int stages) {
  SegmentParams params;
  params.tile_bytes = MiB(4);
  params.workgroups.assign(static_cast<size_t>(stages), 16);
  params.channels.assign(static_cast<size_t>(std::max(0, stages - 1)),
                         sim::ChannelConfig{});
  return params;
}

TEST(CostModelTest, EstimatePositiveAndFinite) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const SegmentEstimate est =
      model.EstimateSegment(TwoStageSegment(1e6, 0.2), DefaultParams(2));
  EXPECT_GT(est.total_cycles, 0.0);
  EXPECT_TRUE(std::isfinite(est.total_cycles));
  EXPECT_EQ(est.kernel_cycles.size(), 2u);
}

TEST(CostModelTest, MoreRowsCostMore) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const double small =
      model.EstimateSegment(TwoStageSegment(1e5, 0.2), DefaultParams(2))
          .total_cycles;
  const double large =
      model.EstimateSegment(TwoStageSegment(4e6, 0.2), DefaultParams(2))
          .total_cycles;
  EXPECT_GT(large, small);
}

TEST(CostModelTest, HigherLambdaCostsMoreChannelTraffic) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const SegmentEstimate low =
      model.EstimateSegment(TwoStageSegment(2e6, 0.05), DefaultParams(2));
  const SegmentEstimate high =
      model.EstimateSegment(TwoStageSegment(2e6, 0.9), DefaultParams(2));
  EXPECT_GT(high.channel_cycles, low.channel_cycles);
}

TEST(CostModelTest, TinyTilesPayDispatchOverhead) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  SegmentParams tiny = DefaultParams(2);
  tiny.tile_bytes = KiB(64);
  SegmentParams large = DefaultParams(2);
  large.tile_bytes = MiB(1);
  const SegmentDesc seg = TwoStageSegment(4e6, 0.2);
  EXPECT_GT(model.EstimateSegment(seg, tiny).total_cycles,
            model.EstimateSegment(seg, large).total_cycles);
}

TEST(CostModelTest, DelayReflectsImbalance) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  // Balanced: both stages same work. Imbalanced: map does 10x.
  SegmentDesc balanced = TwoStageSegment(2e6, 1.0);
  SegmentDesc imbalanced = balanced;
  imbalanced.stages[1].timing.compute_inst_per_row = 200.0;
  const SegmentEstimate b = model.EstimateSegment(balanced, DefaultParams(2));
  const SegmentEstimate i = model.EstimateSegment(imbalanced, DefaultParams(2));
  EXPECT_GT(i.delay_cycles, b.delay_cycles);
}

// ---- Tuner ----

TEST(TunerTest, PicksFromGrids) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const TuningChoice choice =
      TuneSegment(model, TwoStageSegment(4e6, 0.2), AmdCalibration());
  const std::vector<int64_t> tiles = TileSizeGrid();
  EXPECT_NE(std::find(tiles.begin(), tiles.end(), choice.params.tile_bytes),
            tiles.end());
  ASSERT_EQ(choice.params.workgroups.size(), 2u);
  for (int wg : choice.params.workgroups) {
    EXPECT_EQ(wg % sim::DeviceSpec::AmdA10().num_cus, 0)
        << "wg_Ki must be a multiple of #CU";
  }
  EXPECT_GT(choice.estimate.total_cycles, 0.0);
}

TEST(TunerTest, ChoiceIsGridOptimal) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const SegmentDesc seg = TwoStageSegment(4e6, 0.2);
  const TuningChoice choice = TuneSegment(model, seg, AmdCalibration());
  for (int64_t tile : TileSizeGrid()) {
    TuningOverrides pin;
    pin.tile_bytes = tile;
    const TuningChoice pinned = TuneSegment(model, seg, AmdCalibration(), pin);
    EXPECT_LE(choice.estimate.total_cycles,
              pinned.estimate.total_cycles + 1e-6)
        << "tile " << tile;
  }
}

TEST(TunerTest, OverridesAreRespected) {
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  TuningOverrides overrides;
  overrides.tile_bytes = MiB(2);
  overrides.workgroups_per_kernel = 24;
  overrides.has_channel = true;
  overrides.channel.num_channels = 2;
  overrides.channel.packet_bytes = 64;
  const TuningChoice choice =
      TuneSegment(model, TwoStageSegment(2e6, 0.2), AmdCalibration(), overrides);
  EXPECT_EQ(choice.params.tile_bytes, MiB(2));
  for (int wg : choice.params.workgroups) EXPECT_EQ(wg, 24);
  ASSERT_EQ(choice.params.channels.size(), 1u);
  EXPECT_EQ(choice.params.channels[0].num_channels, 2);
  EXPECT_EQ(choice.params.channels[0].packet_bytes, 64);
}

TEST(TunerTest, FinishesWithinFiveMilliseconds) {
  // Section 4.1: "the elapsed time for query optimization is generally
  // smaller than 5 ms".
  CostModel model(sim::DeviceSpec::AmdA10(), &AmdCalibration());
  const SegmentDesc seg = TwoStageSegment(4e6, 0.2);
  const auto start = std::chrono::steady_clock::now();
  TuneSegment(model, seg, AmdCalibration());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 5.0);
}

}  // namespace
}  // namespace model
}  // namespace gpl

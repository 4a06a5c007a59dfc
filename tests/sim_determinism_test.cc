// Property tests: the simulator is a pure function of its inputs — repeated
// runs agree exactly, and costs respond monotonically to the obvious knobs.
#include <gtest/gtest.h>

#include "common/math_util.h"
#include "model/calibration.h"
#include "sim/engine.h"

namespace gpl {
namespace sim {
namespace {

PipelineSpec MakeSpec(int64_t rows, int wg, int64_t tile) {
  PipelineSpec spec;
  KernelLaunch producer;
  producer.desc.name = "p";
  producer.desc.compute_inst_per_row = 8.0;
  producer.desc.mem_inst_per_row = 2.0;
  producer.desc.private_bytes_per_item = 64;
  producer.rows_in = rows;
  producer.bytes_in = rows * 8;
  producer.rows_out = rows;
  producer.bytes_out = rows * 4;
  producer.output = Endpoint::kChannel;
  producer.workgroups_per_tile = wg;
  KernelLaunch consumer = producer;
  consumer.desc.name = "c";
  consumer.input = Endpoint::kChannel;
  consumer.output = Endpoint::kGlobal;
  consumer.bytes_in = producer.bytes_out;
  consumer.bytes_out = 8;
  consumer.rows_out = 1;
  spec.kernels = {producer, consumer};
  spec.channel_configs = {ChannelConfig{}};
  spec.tile_bytes = tile;
  return spec;
}

class DeterminismTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(DeterminismTest, RepeatedPipelineRunsAgreeExactly) {
  Simulator sim(DeviceSpec::AmdA10());
  const PipelineSpec spec = MakeSpec(GetParam(), 32, MiB(1));
  const HwCounters a = *sim.RunPipeline(spec);
  const HwCounters b = *sim.RunPipeline(spec);
  EXPECT_DOUBLE_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_DOUBLE_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_DOUBLE_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_DOUBLE_EQ(a.channel_cycles, b.channel_cycles);
  EXPECT_DOUBLE_EQ(a.stall_cycles, b.stall_cycles);
}

TEST_P(DeterminismTest, SequentialAndBatchAgreeAcrossRuns) {
  Simulator sim(DeviceSpec::AmdA10());
  const PipelineSpec spec = MakeSpec(GetParam(), 32, MiB(1));
  EXPECT_DOUBLE_EQ(sim.RunSequentialTiles(spec)->elapsed_cycles,
                   sim.RunSequentialTiles(spec)->elapsed_cycles);
  KernelLaunch launch = spec.kernels[0];
  launch.output = Endpoint::kGlobal;
  EXPECT_DOUBLE_EQ(sim.RunKernelBatch(launch, 0)->elapsed_cycles,
                   sim.RunKernelBatch(launch, 0)->elapsed_cycles);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeterminismTest,
                         ::testing::Values(1000, 100000, 2000000));

TEST(SimMonotonicityTest, MoreComputeInstructionsNeverFaster) {
  Simulator sim(DeviceSpec::AmdA10());
  double prev = 0.0;
  for (double c_inst : {2.0, 8.0, 32.0, 128.0}) {
    PipelineSpec spec = MakeSpec(1000000, 32, MiB(1));
    spec.kernels[0].desc.compute_inst_per_row = c_inst;
    const double elapsed = sim.RunPipeline(spec)->elapsed_cycles;
    EXPECT_GE(elapsed, prev);
    prev = elapsed;
  }
}

TEST(SimMonotonicityTest, HigherLatencyNeverFaster) {
  double prev = 0.0;
  for (int latency : {100, 300, 600, 1200}) {
    DeviceSpec device = DeviceSpec::AmdA10();
    device.global_mem_latency = latency;
    Simulator sim(device);
    PipelineSpec spec = MakeSpec(1000000, 32, MiB(1));
    spec.kernels[0].desc.random_access_fraction = 0.8;
    spec.kernels[0].desc.random_working_set_bytes = MiB(32);
    const double elapsed = sim.RunPipeline(spec)->elapsed_cycles;
    EXPECT_GE(elapsed, prev);
    prev = elapsed;
  }
}

TEST(SimMonotonicityTest, MoreBandwidthNeverSlowerForScans) {
  double prev = 1e18;
  for (double bw : {10.0, 35.0, 100.0, 330.0}) {
    DeviceSpec device = DeviceSpec::AmdA10();
    device.global_bw_bytes_per_cycle = bw;
    Simulator sim(device);
    KernelLaunch launch;
    launch.desc.name = "scan";
    launch.desc.compute_inst_per_row = 2.0;
    launch.desc.mem_inst_per_row = 4.0;
    launch.rows_in = 4000000;
    launch.bytes_in = 64000000;
    launch.bytes_out = 0;
    const double elapsed = sim.RunKernelBatch(launch, 0)->elapsed_cycles;
    EXPECT_LE(elapsed, prev);
    prev = elapsed;
  }
}

TEST(SimMonotonicityTest, CalibrationIsDeterministic) {
  Simulator sim(DeviceSpec::AmdA10());
  const model::CalibrationTable a = model::CalibrationTable::Run(sim);
  const model::CalibrationTable b = model::CalibrationTable::Run(sim);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].throughput_bytes_per_cycle,
                     b.points()[i].throughput_bytes_per_cycle);
  }
}

}  // namespace
}  // namespace sim
}  // namespace gpl

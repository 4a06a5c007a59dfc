#include <gtest/gtest.h>

#include "common/math_util.h"
#include "sim/engine.h"

namespace gpl {
namespace sim {
namespace {

KernelLaunch MakeLaunch(const std::string& name, int64_t rows, int64_t bytes_in,
                        int64_t bytes_out, double c_inst = 8.0,
                        double m_inst = 2.0) {
  KernelLaunch launch;
  launch.desc.name = name;
  launch.desc.compute_inst_per_row = c_inst;
  launch.desc.mem_inst_per_row = m_inst;
  launch.desc.private_bytes_per_item = 64;
  launch.rows_in = rows;
  launch.bytes_in = bytes_in;
  launch.rows_out = rows;
  launch.bytes_out = bytes_out;
  return launch;
}

PipelineSpec TwoStagePipeline(int64_t rows, double lambda = 1.0) {
  PipelineSpec spec;
  KernelLaunch producer = MakeLaunch("producer", rows, rows * 8, 0);
  producer.output = Endpoint::kChannel;
  producer.workgroups_per_tile = 64;
  producer.rows_out = static_cast<int64_t>(rows * lambda);
  producer.bytes_out = producer.rows_out * 8;
  KernelLaunch consumer =
      MakeLaunch("consumer", producer.rows_out, producer.bytes_out, 8);
  consumer.input = Endpoint::kChannel;
  consumer.workgroups_per_tile = 64;
  spec.kernels = {producer, consumer};
  spec.channel_configs = {ChannelConfig{}};
  spec.tile_bytes = MiB(1);
  return spec;
}

class SimEngineTest : public ::testing::Test {
 protected:
  Simulator sim_{DeviceSpec::AmdA10()};
};

TEST_F(SimEngineTest, KernelBatchElapsedPositive) {
  const HwCounters r =
      *sim_.RunKernelBatch(MakeLaunch("k", 100000, 800000, 0), 0);
  EXPECT_GT(r.elapsed_cycles, 0.0);
  EXPECT_GT(r.compute_cycles, 0.0);
  EXPECT_GT(r.mem_cycles, 0.0);
}

TEST_F(SimEngineTest, KernelBatchScalesWithRows) {
  const double small =
      sim_.RunKernelBatch(MakeLaunch("k", 100000, 800000, 0), 0)->elapsed_cycles;
  const double big =
      sim_.RunKernelBatch(MakeLaunch("k", 400000, 3200000, 0), 0)->elapsed_cycles;
  EXPECT_GT(big, small * 2.0);  // ~4x work minus fixed launch overhead
  EXPECT_LT(big, small * 6.0);
}

TEST_F(SimEngineTest, KernelBatchIncludesLaunchOverhead) {
  const HwCounters r = *sim_.RunKernelBatch(MakeLaunch("k", 64, 512, 0), 0);
  EXPECT_GE(r.elapsed_cycles,
            static_cast<double>(sim_.device().kernel_launch_cycles));
}

TEST_F(SimEngineTest, ComputeHeavyKernelHasHighValuShare) {
  const HwCounters compute_heavy = *sim_.RunKernelBatch(
      MakeLaunch("c", 1000000, 8000000, 0, /*c_inst=*/64.0, /*m_inst=*/0.5), 0);
  const HwCounters memory_heavy = *sim_.RunKernelBatch(
      MakeLaunch("m", 1000000, 8000000, 0, /*c_inst=*/2.0, /*m_inst=*/8.0), 0);
  EXPECT_GT(compute_heavy.ValuBusy(sim_.device()),
            memory_heavy.ValuBusy(sim_.device()));
  EXPECT_GT(memory_heavy.MemUnitBusy(sim_.device()),
            compute_heavy.MemUnitBusy(sim_.device()));
}

TEST_F(SimEngineTest, MaterializedOutputCounted) {
  KernelLaunch launch = MakeLaunch("k", 100000, 800000, 400000);
  const HwCounters r = *sim_.RunKernelBatch(launch, 0);
  EXPECT_EQ(r.bytes_materialized, 400000);
}

TEST_F(SimEngineTest, ResidentStructuresReduceHitRatio) {
  KernelLaunch launch = MakeLaunch("probe", 500000, 4000000, 0);
  launch.desc.random_access_fraction = 0.5;
  launch.desc.random_working_set_bytes = MiB(8);  // larger than cache
  const HwCounters hot = *sim_.RunKernelBatch(launch, 0);
  const HwCounters cold = *sim_.RunKernelBatch(launch, MiB(16));
  EXPECT_GE(hot.CacheHitRatio(), cold.CacheHitRatio());
  EXPECT_GE(cold.elapsed_cycles, hot.elapsed_cycles);
}

TEST_F(SimEngineTest, PipelineDrainsAndAccountsChannelBytes) {
  const PipelineSpec spec = TwoStagePipeline(500000);
  const HwCounters r = *sim_.RunPipeline(spec);
  EXPECT_GT(r.elapsed_cycles, 0.0);
  EXPECT_GT(r.channel_cycles, 0.0);
  EXPECT_EQ(r.bytes_via_channel, spec.kernels[0].bytes_out);
  EXPECT_EQ(r.bytes_materialized, spec.kernels[1].bytes_out);
}

TEST_F(SimEngineTest, PipelineFasterThanSequentialTiles) {
  const PipelineSpec spec = TwoStagePipeline(2000000);
  const double piped = sim_.RunPipeline(spec)->elapsed_cycles;
  const double sequential = sim_.RunSequentialTiles(spec)->elapsed_cycles;
  EXPECT_LT(piped, sequential);
}

TEST_F(SimEngineTest, SequentialTilesPaysPerTileLaunches) {
  PipelineSpec spec = TwoStagePipeline(2000000);
  spec.tile_bytes = KiB(256);
  const double small_tiles = sim_.RunSequentialTiles(spec)->launch_cycles;
  spec.tile_bytes = MiB(8);
  const double big_tiles = sim_.RunSequentialTiles(spec)->launch_cycles;
  EXPECT_GT(small_tiles, big_tiles);
}

TEST_F(SimEngineTest, ImbalancedWorkgroupsCauseDelay) {
  PipelineSpec balanced = TwoStagePipeline(2000000);
  balanced.kernels[0].workgroups_per_tile = 64;
  balanced.kernels[1].workgroups_per_tile = 64;
  PipelineSpec starved = balanced;
  starved.kernels[0].workgroups_per_tile = 2;   // slow producer
  starved.kernels[1].workgroups_per_tile = 64;  // eager consumer
  const HwCounters b = *sim_.RunPipeline(balanced);
  const HwCounters s = *sim_.RunPipeline(starved);
  // Starving the producer slows the whole pipeline: the consumer idles and
  // the segment takes far longer than the balanced allocation.
  EXPECT_GT(s.elapsed_cycles, 1.2 * b.elapsed_cycles);
}

TEST_F(SimEngineTest, HugeTilesThrashTheCache) {
  PipelineSpec small = TwoStagePipeline(8000000);
  small.tile_bytes = MiB(2);
  PipelineSpec huge = small;
  huge.tile_bytes = MiB(64);  // way past the 4 MB cache
  const HwCounters r_small = *sim_.RunPipeline(small);
  const HwCounters r_huge = *sim_.RunPipeline(huge);
  EXPECT_GT(r_huge.channel_cycles, r_small.channel_cycles);
  EXPECT_LT(r_huge.CacheHitRatio(), r_small.CacheHitRatio());
}

TEST_F(SimEngineTest, CountersStayWithinBounds) {
  for (int64_t rows : {10000, 300000, 1000000}) {
    const HwCounters r = *sim_.RunPipeline(TwoStagePipeline(rows));
    EXPECT_GE(r.ValuBusy(sim_.device()), 0.0);
    EXPECT_LE(r.ValuBusy(sim_.device()), 1.0);
    EXPECT_GE(r.MemUnitBusy(sim_.device()), 0.0);
    EXPECT_LE(r.MemUnitBusy(sim_.device()), 1.0);
    EXPECT_GE(r.Occupancy(sim_.device()), 0.0);
    EXPECT_LE(r.Occupancy(sim_.device()), 1.0);
    EXPECT_GE(r.CacheHitRatio(), 0.0);
    EXPECT_LE(r.CacheHitRatio(), 1.0);
  }
}

TEST_F(SimEngineTest, ThreeStagePipelineDrains) {
  PipelineSpec spec;
  KernelLaunch k0 = MakeLaunch("map1", 1000000, 8000000, 4000000);
  k0.output = Endpoint::kChannel;
  KernelLaunch k1 = MakeLaunch("map2", 1000000, 4000000, 2000000);
  k1.input = Endpoint::kChannel;
  k1.output = Endpoint::kChannel;
  KernelLaunch k2 = MakeLaunch("build", 500000, 2000000, 2000000);
  k2.input = Endpoint::kChannel;
  spec.kernels = {k0, k1, k2};
  spec.channel_configs = {ChannelConfig{}, ChannelConfig{}};
  spec.tile_bytes = MiB(2);
  const HwCounters r = *sim_.RunPipeline(spec);
  EXPECT_GT(r.elapsed_cycles, 0.0);
}

TEST_F(SimEngineTest, ZeroRowPipelineStillTerminates) {
  PipelineSpec spec = TwoStagePipeline(1);
  spec.kernels[0].rows_in = 0;
  spec.kernels[0].bytes_in = 0;
  spec.kernels[0].rows_out = 0;
  spec.kernels[0].bytes_out = 0;
  spec.kernels[1].rows_in = 0;
  spec.kernels[1].bytes_in = 0;
  const HwCounters r = *sim_.RunPipeline(spec);
  EXPECT_GE(r.elapsed_cycles, 0.0);
}

TEST_F(SimEngineTest, NvidiaHigherConcurrencyHelpsDeepPipelines) {
  // Four concurrent kernels: AMD (C=2) serializes more than NVIDIA (C=16).
  auto make_spec = [] {
    PipelineSpec spec;
    int64_t rows = 2000000;
    for (int i = 0; i < 4; ++i) {
      KernelLaunch k = MakeLaunch("k" + std::to_string(i), rows, rows * 8,
                                  rows * 8, 16.0, 2.0);
      if (i > 0) k.input = Endpoint::kChannel;
      if (i < 3) k.output = Endpoint::kChannel;
      spec.kernels.push_back(k);
    }
    spec.channel_configs.assign(3, ChannelConfig{});
    spec.tile_bytes = MiB(2);
    return spec;
  };
  Simulator amd(DeviceSpec::AmdA10());
  Simulator nvidia(DeviceSpec::NvidiaK40());
  const double amd_cycles = amd.RunPipeline(make_spec())->elapsed_cycles;
  const double nv_cycles = nvidia.RunPipeline(make_spec())->elapsed_cycles;
  // Not directly comparable in absolute terms (different clocks/BW), but
  // both must drain, and the K40 (more CUs, more bandwidth, C=16) is faster.
  EXPECT_GT(amd_cycles, 0.0);
  EXPECT_GT(nv_cycles, 0.0);
  EXPECT_LT(nv_cycles, amd_cycles);
}

}  // namespace
}  // namespace sim
}  // namespace gpl

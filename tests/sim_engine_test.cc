#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "sim/engine.h"
#include "sim/occupancy.h"

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

TEST_F(SimEngineTest, SpecWithoutKernelsIsInvalid) {
  PipelineSpec spec = TwoStagePipeline(1000);
  spec.kernels.clear();
  EXPECT_EQ(sim_.RunPipeline(spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sim_.RunSequentialTiles(spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SimEngineTest, SpecWithTooFewChannelConfigsIsInvalid) {
  PipelineSpec spec = TwoStagePipeline(1000);
  spec.channel_configs.clear();
  EXPECT_EQ(sim_.RunPipeline(spec).status().code(),
            StatusCode::kInvalidArgument);
  // The sequential tiling opens no channels, so it needs no configs.
  EXPECT_TRUE(sim_.RunSequentialTiles(spec).ok());
}

TEST_F(SimEngineTest, SpecWithNonPositiveTileBytesIsInvalid) {
  for (int64_t tile_bytes : {int64_t{0}, int64_t{-4096}}) {
    PipelineSpec spec = TwoStagePipeline(1000);
    spec.tile_bytes = tile_bytes;
    EXPECT_EQ(sim_.RunPipeline(spec).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sim_.RunSequentialTiles(spec).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- RunPipeline step by step, through a recording observer ----

enum class Gaps { kAllChannels, kAllGlobal, kFirstOnly };

struct ChainShape {
  int kernels = 2;
  int wg_per_tile = 16;
  double selectivity = 1.0;
  int64_t tile_bytes = MiB(1);
  Gaps gaps = Gaps::kAllChannels;
};

bool ChannelAfter(const ChainShape& shape, int k) {
  if (k + 1 >= shape.kernels) return false;
  return shape.gaps == Gaps::kAllChannels ||
         (shape.gaps == Gaps::kFirstOnly && k == 0);
}

// A chain of `shape.kernels` kernels; kernel k reads rows * selectivity^k
// rows of 8 bytes. Compute cost grows along the chain, so later kernels
// run slower than earlier ones and channels fill and drain.
PipelineSpec Chain(const ChainShape& shape, int64_t rows) {
  PipelineSpec spec;
  double rows_in = static_cast<double>(rows);
  for (int k = 0; k < shape.kernels; ++k) {
    const int64_t in = static_cast<int64_t>(rows_in);
    const int64_t out = static_cast<int64_t>(rows_in * shape.selectivity);
    KernelLaunch launch = MakeLaunch("k" + std::to_string(k), in, in * 8,
                                     out * 8, 4.0 + 12.0 * k, 2.0);
    launch.rows_out = out;
    launch.workgroups_per_tile = shape.wg_per_tile;
    if (k > 0 && ChannelAfter(shape, k - 1)) launch.input = Endpoint::kChannel;
    if (ChannelAfter(shape, k)) launch.output = Endpoint::kChannel;
    spec.kernels.push_back(launch);
    rows_in *= shape.selectivity;
  }
  spec.channel_configs.assign(static_cast<size_t>(shape.kernels - 1),
                              ChannelConfig{});
  spec.tile_bytes = shape.tile_bytes;
  return spec;
}

std::vector<ChainShape> Shapes() {
  std::vector<ChainShape> shapes;
  for (int kernels : {2, 3, 4, 5}) {
    for (int wg : {2, 16, 64}) {
      for (double selectivity : {1.0, 0.25}) {
        for (int64_t tile : {KiB(256), MiB(2)}) {
          for (Gaps gaps :
               {Gaps::kAllChannels, Gaps::kAllGlobal, Gaps::kFirstOnly}) {
            shapes.push_back({kernels, wg, selectivity, tile, gaps});
          }
        }
      }
    }
  }
  return shapes;
}

// Tracks what the run puts on each CU and records every stall transition,
// checking as it goes that time never runs backwards.
class Recorder : public PipelineObserver {
 public:
  Recorder(const DeviceSpec& device, int kernels)
      : max_on_cu(static_cast<size_t>(kernels), 0),
        max_resident(static_cast<size_t>(kernels), 0),
        dispatched(static_cast<size_t>(kernels), 0),
        completed(static_cast<size_t>(kernels), 0),
        on_cu_(static_cast<size_t>(kernels),
               std::vector<int>(static_cast<size_t>(device.num_cus), 0)),
        cu_resident_(static_cast<size_t>(device.num_cus), 0),
        resident_(static_cast<size_t>(kernels), 0) {}

  void OnDispatch(int k, int cu, double now) override {
    Advance(now);
    const size_t kk = static_cast<size_t>(k);
    const size_t c = static_cast<size_t>(cu);
    ++dispatched[kk];
    max_resident[kk] = std::max(max_resident[kk], ++resident_[kk]);
    max_on_cu[kk] = std::max(max_on_cu[kk], ++on_cu_[kk][c]);
    max_cu_resident = std::max(max_cu_resident, ++cu_resident_[c]);
    int kernels_on_cu = 0;
    for (const std::vector<int>& per_cu : on_cu_) {
      if (per_cu[c] > 0) ++kernels_on_cu;
    }
    max_kernels_on_cu = std::max(max_kernels_on_cu, kernels_on_cu);
  }
  void OnComplete(int k, int cu, double now) override {
    Advance(now);
    ++completed[static_cast<size_t>(k)];
    --resident_[static_cast<size_t>(k)];
    --on_cu_[static_cast<size_t>(k)][static_cast<size_t>(cu)];
    --cu_resident_[static_cast<size_t>(cu)];
  }
  void OnStall(int k, Stall stall, double now) override {
    Advance(now);
    stalls.push_back({k, stall});
  }
  void OnEnd(const HwCounters& counters) override {
    ended = true;
    end_cycles = counters.elapsed_cycles;
  }

  std::vector<int> max_on_cu;     ///< per kernel, on any one CU
  std::vector<int> max_resident;  ///< per kernel, device-wide
  std::vector<int64_t> dispatched;
  std::vector<int64_t> completed;
  int max_cu_resident = 0;
  int max_kernels_on_cu = 0;
  std::vector<std::pair<int, Stall>> stalls;
  bool ended = false;
  double end_cycles = 0.0;

 private:
  void Advance(double now) {
    EXPECT_GE(now, last_);
    last_ = now;
  }

  std::vector<std::vector<int>> on_cu_;
  std::vector<int> cu_resident_;
  std::vector<int> resident_;
  double last_ = 0.0;
};

class PipelineStepTest : public ::testing::TestWithParam<bool> {
 protected:
  DeviceSpec device() const {
    return GetParam() ? DeviceSpec::NvidiaK40() : DeviceSpec::AmdA10();
  }
};

TEST_P(PipelineStepTest, DispatchRespectsSlotCuAndConcurrencyCaps) {
  const DeviceSpec dev = device();
  const Simulator sim(dev);
  for (const ChainShape& shape : Shapes()) {
    const PipelineSpec spec = Chain(shape, 200000);
    Recorder rec(dev, shape.kernels);
    const HwCounters observed = *sim.RunPipeline(spec, &rec);
    EXPECT_EQ(observed, *sim.RunPipeline(spec));  // observing changes nothing
    ASSERT_TRUE(rec.ended);
    EXPECT_EQ(rec.end_cycles, observed.elapsed_cycles);

    std::vector<ResourceRequest> requests;
    for (const KernelLaunch& launch : spec.kernels) {
      requests.push_back({launch.desc.private_bytes_per_item,
                          launch.desc.local_bytes_per_item, shape.wg_per_tile});
    }
    const OccupancyResult occ = ComputeOccupancy(dev, requests);
    const int64_t tiles =
        std::max<int64_t>(1, CeilDiv(spec.kernels[0].bytes_in, spec.tile_bytes));
    EXPECT_LE(rec.max_cu_resident, dev.max_workgroups_per_cu);
    EXPECT_LE(rec.max_kernels_on_cu, std::max(1, dev.concurrent_kernels));
    for (size_t k = 0; k < spec.kernels.size(); ++k) {
      const int slots = std::max(1, occ.active_slots[k]);
      EXPECT_LE(rec.max_resident[k], slots) << k;
      EXPECT_LE(rec.max_on_cu[k],
                std::max(1, static_cast<int>(CeilDiv(slots, dev.num_cus))))
          << k;
      // Every work-group starts once and finishes once.
      EXPECT_EQ(rec.dispatched[k], tiles * shape.wg_per_tile) << k;
      EXPECT_EQ(rec.completed[k], rec.dispatched[k]) << k;
    }
  }
}

TEST_P(PipelineStepTest, OnlyAChannelStallsAKernel) {
  const DeviceSpec dev = device();
  const Simulator sim(dev);
  int starved = 0;
  int blocked = 0;
  for (const ChainShape& shape : Shapes()) {
    Recorder rec(dev, shape.kernels);
    ASSERT_TRUE(sim.RunPipeline(Chain(shape, 200000), &rec).ok());
    for (const auto& [k, stall] : rec.stalls) {
      starved += stall == Stall::kStarved;
      blocked += stall == Stall::kBlocked;
      // The first kernel reads global memory, the last writes it.
      if (k == 0) {
        EXPECT_NE(stall, Stall::kStarved);
      }
      if (k + 1 == shape.kernels) {
        EXPECT_NE(stall, Stall::kBlocked);
      }
      // A kernel with no channel at either end never waits on one.
      if (!ChannelAfter(shape, k) && (k == 0 || !ChannelAfter(shape, k - 1))) {
        EXPECT_EQ(stall, Stall::kNone) << "kernel " << k;
      }
    }
  }
  // The chains exercise both kinds of stall.
  EXPECT_GT(starved, 0);
  EXPECT_GT(blocked, 0);
}

TEST_P(PipelineStepTest, ElapsedNeverBeatsGlobalBandwidth) {
  const DeviceSpec dev = device();
  const Simulator sim(dev);
  for (const ChainShape& shape : Shapes()) {
    const PipelineSpec spec = Chain(shape, 200000);
    double global_bytes = 0.0;
    for (const KernelLaunch& launch : spec.kernels) {
      if (launch.input == Endpoint::kGlobal) global_bytes += launch.bytes_in;
      if (launch.output == Endpoint::kGlobal) global_bytes += launch.bytes_out;
    }
    const double floor = global_bytes / dev.global_bw_bytes_per_cycle;
    EXPECT_GE(sim.RunPipeline(spec)->elapsed_cycles, floor * (1.0 - 1e-9))
        << shape.kernels << " kernels, " << shape.wg_per_tile << " wg/tile";
  }
}

TEST_P(PipelineStepTest, MoreRowsNeverFewerCycles) {
  const Simulator sim(device());
  for (const ChainShape& shape : Shapes()) {
    double last = 0.0;
    for (int64_t rows : {20000, 60000, 200000, 600000}) {
      const double cycles = sim.RunPipeline(Chain(shape, rows))->elapsed_cycles;
      EXPECT_GE(cycles, last) << shape.kernels << " kernels, " << rows
                              << " rows, " << shape.wg_per_tile << " wg/tile";
      last = cycles;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, PipelineStepTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Nvidia" : "Amd";
                         });

}  // namespace
}  // namespace sim
}  // namespace gpl

#include "model/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace gpl {
namespace model {

sim::HwCounters RunProducerConsumer(const sim::Simulator& simulator,
                                    const sim::ChannelConfig& config,
                                    int64_t data_bytes) {
  const int64_t rows = std::max<int64_t>(1, data_bytes / 4);  // N integers

  // The producer *generates* N integers (Section 2.1), so the chain is
  // channel-dominated rather than DRAM-read-dominated.
  sim::KernelLaunch producer;
  producer.desc.name = "k_producer";
  producer.desc.compute_inst_per_row = 4.0;
  producer.desc.mem_inst_per_row = 0.1;
  producer.desc.private_bytes_per_item = 32;
  producer.rows_in = rows;
  producer.bytes_in = 0;
  producer.rows_out = rows;
  producer.bytes_out = data_bytes;
  producer.input = sim::Endpoint::kGlobal;
  producer.output = sim::Endpoint::kChannel;

  sim::KernelLaunch consumer;
  consumer.desc.name = "k_consumer";
  consumer.desc.compute_inst_per_row = 2.0;
  consumer.desc.mem_inst_per_row = 0.1;  // channel reads are charged separately
  consumer.desc.private_bytes_per_item = 32;
  consumer.rows_in = rows;
  consumer.bytes_in = data_bytes;
  consumer.rows_out = 1;
  consumer.bytes_out = 8;  // a single reduced value
  consumer.input = sim::Endpoint::kChannel;
  consumer.output = sim::Endpoint::kGlobal;

  sim::PipelineSpec spec;
  spec.kernels = {producer, consumer};
  spec.channel_configs = {config};
  spec.tile_bytes = std::max<int64_t>(data_bytes, 1);  // one tile: d is the knob
  // No fault injector here: calibration is infrastructure, not a query, so
  // the run cannot fail.
  Result<sim::HwCounters> result = simulator.RunPipeline(spec);
  GPL_CHECK(result.ok()) << result.status().ToString();
  return result.take();
}

CalibrationTable CalibrationTable::Run(const sim::Simulator& simulator) {
  CalibrationTable table;
  table.channel_grid_ = {1, 2, 4, 8, 16, 32};
  if (simulator.device().has_packet_size_param) {
    table.packet_grid_ = {8, 16, 64, 256, 1024};
  } else {
    table.packet_grid_ = {16};  // NVIDIA DDT: no packet-size knob
  }
  // N from 512K to 8M integers (Figures 2 and 23).
  table.data_grid_ = {512 * 1024 * 4, 1024 * 1024 * 4, 2048 * 1024 * 4,
                      4096 * 1024 * 4, 8192 * 1024 * 4};

  for (int n : table.channel_grid_) {
    for (int p : table.packet_grid_) {
      for (int64_t d : table.data_grid_) {
        sim::ChannelConfig config;
        config.num_channels = n;
        config.packet_bytes = p;
        const sim::HwCounters counters =
            RunProducerConsumer(simulator, config, d);
        CalibrationPoint point;
        point.num_channels = n;
        point.packet_bytes = p;
        point.data_bytes = d;
        // Channel-subsystem throughput: the measured channel work spreads
        // across the CUs' memory pipelines, so wall time is work / #CU. The
        // producer/consumer compute time is excluded — Eq. 6 charges it
        // separately through c_Ki.
        const double wall_channel_cycles = std::max(
            1.0, counters.channel_cycles /
                     static_cast<double>(simulator.device().num_cus));
        point.throughput_bytes_per_cycle =
            static_cast<double>(d) / wall_channel_cycles;
        table.points_.push_back(point);
      }
    }
  }
  return table;
}

double CalibrationTable::Throughput(int num_channels, int packet_bytes,
                                    int64_t data_bytes) const {
  GPL_CHECK(!points_.empty()) << "calibration table is empty";
  // Nearest measured point in log space, dimension-wise.
  double best_dist = std::numeric_limits<double>::infinity();
  double best_tp = points_.front().throughput_bytes_per_cycle;
  const double ln = std::log2(std::max(1, num_channels));
  const double lp = std::log2(std::max(1, packet_bytes));
  const double ld = std::log2(static_cast<double>(std::max<int64_t>(1, data_bytes)));
  for (const CalibrationPoint& pt : points_) {
    const double dn = ln - std::log2(pt.num_channels);
    const double dp = lp - std::log2(pt.packet_bytes);
    const double dd = ld - std::log2(static_cast<double>(pt.data_bytes));
    const double dist = dn * dn + dp * dp + 0.25 * dd * dd;
    if (dist < best_dist) {
      best_dist = dist;
      best_tp = pt.throughput_bytes_per_cycle;
    }
  }
  return best_tp;
}

CalibrationTable::BestConfig CalibrationTable::Best(int64_t data_bytes) const {
  GPL_CHECK(!points_.empty()) << "calibration table is empty";
  BestConfig best;
  const double ld = std::log2(static_cast<double>(std::max<int64_t>(1, data_bytes)));
  // Among points with the nearest data size, pick the highest throughput.
  double nearest = std::numeric_limits<double>::infinity();
  for (const CalibrationPoint& pt : points_) {
    const double dd =
        std::abs(ld - std::log2(static_cast<double>(pt.data_bytes)));
    nearest = std::min(nearest, dd);
  }
  for (const CalibrationPoint& pt : points_) {
    const double dd =
        std::abs(ld - std::log2(static_cast<double>(pt.data_bytes)));
    if (dd > nearest + 1e-9) continue;
    if (pt.throughput_bytes_per_cycle > best.throughput_bytes_per_cycle) {
      best.throughput_bytes_per_cycle = pt.throughput_bytes_per_cycle;
      best.config.num_channels = pt.num_channels;
      best.config.packet_bytes = pt.packet_bytes;
    }
  }
  return best;
}

}  // namespace model
}  // namespace gpl

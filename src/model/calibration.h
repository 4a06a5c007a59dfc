#ifndef GPL_MODEL_CALIBRATION_H_
#define GPL_MODEL_CALIBRATION_H_

#include <vector>

#include "sim/channel.h"
#include "sim/engine.h"

namespace gpl {
namespace model {

/// One measured point of the channel-throughput relationship Γ(n, p, d)
/// (Eq. 1 / Eq. 11).
struct CalibrationPoint {
  int num_channels = 1;
  int packet_bytes = 16;
  int64_t data_bytes = 0;
  double throughput_bytes_per_cycle = 0.0;
};

/// The calibrated channel-throughput relationship. Obtained exactly as in
/// Section 2.1: a producer-consumer kernel chain pushes N integers through a
/// channel for every grid point of (number of channels, packet size, data
/// size); the measured throughputs become the model's Γ.
///
/// On devices without a packet-size knob (NVIDIA, Appendix A.1), only
/// (n, d) is swept and Γ(n, d) is recorded (Eq. 11).
///
/// Thread-safety: immutable after Run(); Throughput()/Best() and the grid
/// accessors are lookup-only and safe to call concurrently — one table is
/// shared by every worker engine of a QueryService.
class CalibrationTable {
 public:
  /// Runs the producer-consumer microbenchmark over the calibration grid.
  static CalibrationTable Run(const sim::Simulator& simulator);

  /// Γ lookup: throughput (bytes/cycle) for a configuration, interpolating
  /// to the nearest measured data size (log-scale nearest neighbour).
  double Throughput(int num_channels, int packet_bytes, int64_t data_bytes) const;

  /// Best (n, p) for transferring `data_bytes` (the n_max/p_max of Section
  /// 4.1) and the corresponding throughput.
  struct BestConfig {
    sim::ChannelConfig config;
    double throughput_bytes_per_cycle = 0.0;
  };
  BestConfig Best(int64_t data_bytes) const;

  const std::vector<CalibrationPoint>& points() const { return points_; }
  const std::vector<int>& channel_grid() const { return channel_grid_; }
  const std::vector<int>& packet_grid() const { return packet_grid_; }
  const std::vector<int64_t>& data_grid() const { return data_grid_; }

 private:
  std::vector<CalibrationPoint> points_;
  std::vector<int> channel_grid_;
  std::vector<int> packet_grid_;
  std::vector<int64_t> data_grid_;
};

/// Runs one producer-consumer transfer of `data_bytes` through a channel
/// with the given configuration and returns the simulated counters (also
/// used directly by the Figure 2 / Figure 23 benches).
sim::HwCounters RunProducerConsumer(const sim::Simulator& simulator,
                                    const sim::ChannelConfig& config,
                                    int64_t data_bytes);

}  // namespace model
}  // namespace gpl

#endif  // GPL_MODEL_CALIBRATION_H_

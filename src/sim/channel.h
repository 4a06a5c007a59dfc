#ifndef GPL_SIM_CHANNEL_H_
#define GPL_SIM_CHANNEL_H_

#include <cstdint>

#include "sim/device.h"

namespace gpl {
namespace sim {

/// Configuration of the data channel between two pipelined kernels: the
/// number of physical channels (pipes) and the packet size. These are two of
/// the three calibration knobs of Section 2.1 (the third, data size, is the
/// amount pushed through).
struct ChannelConfig {
  int num_channels = 8;
  int packet_bytes = 64;
};

/// State and cost model of one producer-consumer channel in the simulator,
/// following the OpenCL 2.0 pipe reservation protocol (Figure 9):
///
///   producer work-group: Reserve(bytes) at dispatch -> executes ->
///                        CommitReserved(bytes) at completion;
///   consumer work-group: CanAcquire/Acquire(bytes) at dispatch.
///
/// Reserving at dispatch gives bounded in-flight data and makes pipelined
/// execution deadlock-free: a dispatched producer always runs to completion.
///
/// Cost structure (cycles of memory-pipeline work):
///  - each packet pays a reservation/synchronization cost, amortized across
///    the channels that can commit concurrently (up to the device port
///    limit, with a management penalty beyond it);
///  - payload moves at cache or global-memory bandwidth depending on
///    residency (CacheModel::ChannelResidency);
///  - payloads are padded up to whole packets, so oversized packets waste
///    bandwidth on partially-filled packets.
class ChannelState {
 public:
  ChannelState(const ChannelConfig& config, const DeviceSpec& device);

  const ChannelConfig& config() const { return config_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  double available_bytes() const { return available_; }
  double reserved_bytes() const { return reserved_; }
  double free_bytes() const {
    return static_cast<double>(capacity_bytes_) - available_ - reserved_;
  }

  // ---- Occupancy statistics (for tracing/profiling) ----
  double total_committed_bytes() const { return total_committed_; }
  /// Peak fill level relative to capacity, in [0, 1].
  double PeakFillRatio() const {
    return capacity_bytes_ > 0
               ? peak_occupancy_ / static_cast<double>(capacity_bytes_)
               : 0.0;
  }

  /// Raises the capacity so at least `bytes` can always be reserved (used to
  /// guarantee one work-group's output fits).
  void EnsureCapacity(int64_t bytes);

  // ---- Space/data accounting (byte counts are doubles to tolerate uneven
  // work-group splits without rounding deadlocks) ----
  bool CanReserve(double bytes) const { return free_bytes() + kEps >= bytes; }
  void Reserve(double bytes);
  void CommitReserved(double bytes);
  bool CanAcquire(double bytes) const { return available_ + kEps >= bytes; }
  void Acquire(double bytes);

  // ---- Timing ----

  /// Cycles of memory-pipeline work for a producer work-group to commit
  /// `payload_bytes`, given the fraction of channel traffic that is
  /// cache-resident.
  double CommitCost(double payload_bytes, double residency) const;

  /// Cycles for a consumer work-group to acquire `payload_bytes`. Transfer
  /// is charged on the packet-padded size, symmetric with CommitCost: the
  /// consumer reads back the same whole packets the producer wrote.
  double AcquireCost(double payload_bytes, double residency) const;

 private:
  static constexpr double kEps = 0.5;

  double PerPacketSyncCost() const;

  ChannelConfig config_;
  const DeviceSpec* device_;
  int64_t capacity_bytes_;
  double available_ = 0.0;
  double reserved_ = 0.0;

  // Occupancy statistics (reserved + available high-water mark, traffic).
  double peak_occupancy_ = 0.0;
  double total_committed_ = 0.0;
};

}  // namespace sim
}  // namespace gpl

#endif  // GPL_SIM_CHANNEL_H_

#include "sim/channel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gpl {
namespace sim {

ChannelState::ChannelState(const ChannelConfig& config, const DeviceSpec& device)
    : config_(config), device_(&device) {
  GPL_CHECK(config.num_channels >= 1) << "channel count must be >= 1";
  GPL_CHECK(config.packet_bytes >= 1) << "packet size must be >= 1";
  capacity_bytes_ = static_cast<int64_t>(config.num_channels) *
                    device.channel_capacity_bytes_per_channel;
}

void ChannelState::EnsureCapacity(int64_t bytes) {
  capacity_bytes_ = std::max(capacity_bytes_, bytes);
}

void ChannelState::Reserve(double bytes) {
  GPL_DCHECK(CanReserve(bytes));
  reserved_ += bytes;
  peak_occupancy_ = std::max(peak_occupancy_, reserved_ + available_);
}

void ChannelState::CommitReserved(double bytes) {
  reserved_ = std::max(0.0, reserved_ - bytes);
  available_ += bytes;
  total_committed_ += bytes;
  peak_occupancy_ = std::max(peak_occupancy_, reserved_ + available_);
}

void ChannelState::Acquire(double bytes) {
  GPL_DCHECK(CanAcquire(bytes));
  available_ = std::max(0.0, available_ - bytes);
}

double ChannelState::PerPacketSyncCost() const {
  const int n = config_.num_channels;
  const int effective = std::min(n, device_->channel_port_limit);
  // Reservation atomics parallelize across channels up to the port limit;
  // beyond it, managing extra channels adds overhead rather than bandwidth.
  double cost = device_->channel_sync_cycles / static_cast<double>(effective);
  if (n > device_->channel_port_limit) {
    cost *= 1.0 + 0.10 * static_cast<double>(n - device_->channel_port_limit);
  }
  return cost;
}

double ChannelState::CommitCost(double payload_bytes, double residency) const {
  if (payload_bytes <= 0.0) return 0.0;
  const double p = static_cast<double>(config_.packet_bytes);
  const double packets = std::ceil(payload_bytes / p);
  const double padded = packets * p;
  // Thrashed packets are evicted to DRAM and must be read back by the
  // consumer: the traffic doubles and runs at global-memory bandwidth.
  const double bw = device_->cache_bw_bytes_per_cycle * residency +
                    device_->global_bw_bytes_per_cycle / 2.0 * (1.0 - residency);
  return packets * PerPacketSyncCost() + padded / bw;
}

double ChannelState::AcquireCost(double payload_bytes, double residency) const {
  // Reads pay no reservation, only a lighter dequeue sync plus the transfer.
  if (payload_bytes <= 0.0) return 0.0;
  const double p = static_cast<double>(config_.packet_bytes);
  const double packets = std::ceil(payload_bytes / p);
  const double padded = packets * p;
  const double bw = device_->cache_bw_bytes_per_cycle * residency +
                    device_->global_bw_bytes_per_cycle / 2.0 * (1.0 - residency);
  // The consumer reads back whole packets: a thrashed, partially-filled
  // packet costs its padded size on the way in just as CommitCost charged it
  // on the way out (the two sides of the same transfer must agree).
  return 0.5 * packets * PerPacketSyncCost() + padded / bw;
}

}  // namespace sim
}  // namespace gpl

#include "sim/fault.h"

#include <utility>

namespace gpl {
namespace sim {

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

void FaultInjector::Reset() {
  rng_ = Random(config_.seed);
  stats_ = FaultStats{};
}

bool FaultInjector::ScheduledAt(FaultKind kind, int64_t site_index) const {
  for (const ScheduledFault& fault : config_.scheduled) {
    if (fault.kind == kind && fault.site_index == site_index) return true;
  }
  return false;
}

Status FaultInjector::OnKernelLaunch(const std::string& kernel,
                                     double* throttle_penalty) {
  *throttle_penalty = 0.0;
  const int64_t site = stats_.kernel_launches++;
  // Draw every dice in a fixed order so the random stream advances
  // identically whether or not an earlier draw fires — a fault at site N
  // never changes what site N+1 would roll.
  const bool roll_reset = rng_.Bernoulli(config_.device_reset_rate);
  const bool roll_abort = rng_.Bernoulli(config_.kernel_abort_rate);
  const bool roll_throttle = rng_.Bernoulli(config_.throttle_rate);

  if (ScheduledAt(FaultKind::kDeviceReset, site) || roll_reset) {
    ++stats_.device_resets;
    return Status::TransientDeviceError(
        "injected device reset at kernel launch #" + std::to_string(site) +
        " (" + kernel + ")");
  }
  if (ScheduledAt(FaultKind::kTransientKernelAbort, site) || roll_abort) {
    ++stats_.kernel_aborts;
    return Status::TransientDeviceError(
        "injected transient kernel abort at launch #" + std::to_string(site) +
        " (" + kernel + ")");
  }
  if (ScheduledAt(FaultKind::kMemoryThrottle, site) || roll_throttle) {
    ++stats_.throttles;
    *throttle_penalty = config_.throttle_penalty;
  }
  return Status::OK();
}

Status FaultInjector::OnChannelAlloc(const ChannelConfig& config) {
  const int64_t site = stats_.channel_reservations++;
  const bool roll = rng_.Bernoulli(config_.channel_alloc_fail_rate);
  if (ScheduledAt(FaultKind::kChannelAllocFailed, site) || roll) {
    ++stats_.channel_alloc_failures;
    return Status::ChannelAllocFailed(
        "injected channel allocation failure at reservation #" +
        std::to_string(site) + " (" + std::to_string(config.num_channels) +
        " channels x " + std::to_string(config.packet_bytes) + "B packets)");
  }
  return Status::OK();
}

uint64_t FaultInjector::AttemptSeed(uint64_t base, uint64_t sequence,
                                    int attempt) {
  // splitmix64 finalizer over the mixed inputs: cheap, well-distributed, and
  // stable across platforms.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (sequence + 1) +
               0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(attempt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace sim
}  // namespace gpl

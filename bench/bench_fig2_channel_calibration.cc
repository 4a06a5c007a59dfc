/// Figure 2: relationship between channel configuration (number of channels,
/// input size N) and producer-consumer throughput on the AMD device, for a
/// packet size of 16 bytes.
#include <cstdio>

#include "bench_util.h"
#include "model/calibration.h"

int main() {
  using namespace gpl;
  const sim::DeviceSpec device = sim::DeviceSpec::AmdA10();
  sim::Simulator simulator(device);
  benchutil::Banner("Figure 2",
                    "Channel throughput vs (#channels, N), packet = 16 B, "
                    "AMD device",
                    0);

  const int channel_counts[] = {1, 2, 4, 8, 16, 32};
  const int64_t sizes_k[] = {512, 1024, 2048, 4096, 8192};  // N in K integers

  std::printf("%12s", "N (K ints)");
  for (int n : channel_counts) std::printf("  n=%-8d", n);
  std::printf("\n");
  for (int64_t nk : sizes_k) {
    std::printf("%12lld", static_cast<long long>(nk));
    for (int n : channel_counts) {
      sim::ChannelConfig config;
      config.num_channels = n;
      config.packet_bytes = 16;
      const sim::HwCounters r =
          model::RunProducerConsumer(simulator, config, nk * 1024 * 4);
      const double gbps = static_cast<double>(nk * 1024 * 4) /
                          r.elapsed_cycles * device.core_mhz * 1e6 / 1e9;
      std::printf("  %8.2f ", gbps);
    }
    std::printf("\n");
  }
  std::printf("(entries are end-to-end producer-consumer throughput, GB/s)\n");

  // The calibrated Γ the cost model consumes (channel-subsystem throughput).
  const model::CalibrationTable table = model::CalibrationTable::Run(simulator);
  const model::CalibrationTable::BestConfig best = table.Best(4 << 20);
  std::printf("\nBest channel config for a 4 MB transfer: n=%d, p=%d B "
              "(Γ = %.1f bytes/cycle)\n",
              best.config.num_channels, best.config.packet_bytes,
              best.throughput_bytes_per_cycle);
  return 0;
}

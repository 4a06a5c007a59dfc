/// Figure 23 (Appendix A.1): relationship between kernel-communication
/// configuration and throughput on the NVIDIA K40. Unlike the AMD pipe, the
/// Direct Data Transfer mechanism exposes no packet-size knob, so only the
/// number of channels and the data size are swept (Eq. 11).
#include <cstdio>

#include "bench_util.h"
#include "model/calibration.h"

int main() {
  using namespace gpl;
  const sim::DeviceSpec device = sim::DeviceSpec::NvidiaK40();
  sim::Simulator simulator(device);
  benchutil::Banner("Figure 23",
                    "Channel throughput vs (#channels, N) on the NVIDIA K40",
                    0);

  const int channel_counts[] = {1, 2, 4, 8, 16, 32};
  const int64_t sizes_k[] = {512, 1024, 2048, 4096, 8192};

  std::printf("%12s", "N (K ints)");
  for (int n : channel_counts) std::printf("  n=%-8d", n);
  std::printf("\n");
  for (int64_t nk : sizes_k) {
    std::printf("%12lld", static_cast<long long>(nk));
    for (int n : channel_counts) {
      sim::ChannelConfig config;
      config.num_channels = n;
      config.packet_bytes = 16;  // fixed: the K40 exposes no packet knob
      const sim::HwCounters r =
          model::RunProducerConsumer(simulator, config, nk * 1024 * 4);
      const double gbps = static_cast<double>(nk * 1024 * 4) /
                          r.elapsed_cycles * device.core_mhz * 1e6 / 1e9;
      std::printf("  %8.2f ", gbps);
    }
    std::printf("\n");
  }
  std::printf("(entries are end-to-end producer-consumer throughput, GB/s)\n");
  return 0;
}

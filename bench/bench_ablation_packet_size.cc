/// Ablation: the channel packet size p — the third calibration knob of
/// Section 2.1 (Figure 2 fixes p = 16 B; this sweep exposes the p axis the
/// paper's calibration explores). Small packets pay per-packet reservation
/// overhead; oversized packets waste bandwidth on padding when payloads are
/// sparse.
#include <cstdio>

#include "bench_util.h"
#include "model/calibration.h"

int main() {
  using namespace gpl;
  const sim::DeviceSpec device = sim::DeviceSpec::AmdA10();
  sim::Simulator simulator(device);
  benchutil::Banner("Ablation: channel packet size",
                    "Producer-consumer throughput vs packet size (n = 8, "
                    "AMD device)",
                    0);

  const int64_t n_ints = 2048 * 1024;  // 8 MB transfer
  std::printf("%12s %16s\n", "packet (B)", "throughput (GB/s)");
  double best_tp = 0.0;
  int best_p = 0;
  for (int p : {4, 8, 16, 32, 64, 128, 256, 1024, 4096}) {
    sim::ChannelConfig config;
    config.num_channels = 8;
    config.packet_bytes = p;
    const sim::HwCounters r =
        model::RunProducerConsumer(simulator, config, n_ints * 4);
    const double gbps = static_cast<double>(n_ints * 4) / r.elapsed_cycles *
                        device.core_mhz * 1e6 / 1e9;
    if (gbps > best_tp) {
      best_tp = gbps;
      best_p = p;
    }
    std::printf("%12d %16.2f\n", p, gbps);
  }
  std::printf("\nBest packet size for this dense transfer: %d B\n", best_p);

  // Sparse payloads flip the trade-off: a selective producer work-group
  // emits only ~100 B per hand-off, so oversized packets transfer mostly
  // padding.
  std::printf("\nPer-hand-off cost for a sparse 100 B payload (cycles):\n");
  std::printf("%12s %16s\n", "packet (B)", "commit cost");
  double sparse_best_cost = 0.0;
  int sparse_best_p = 0;
  for (int p : {4, 8, 16, 32, 64, 128, 256, 1024, 4096}) {
    sim::ChannelConfig config;
    config.num_channels = 8;
    config.packet_bytes = p;
    sim::ChannelState channel(config, device);
    const double cost = channel.CommitCost(100.0, 1.0);
    if (sparse_best_p == 0 || cost < sparse_best_cost) {
      sparse_best_cost = cost;
      sparse_best_p = p;
    }
    std::printf("%12d %16.2f\n", p, cost);
  }
  std::printf("Best packet size for sparse payloads: %d B\n", sparse_best_p);
  std::printf("(the paper reports 16 B as best on its hardware; the simulated "
              "pipe favors larger packets for dense payloads, while the "
              "calibrated Γ lets the tuner pick per payload)\n");
  return 0;
}

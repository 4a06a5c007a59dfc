#ifndef GPL_SIM_LINK_H_
#define GPL_SIM_LINK_H_

#include <cstdint>
#include <string>

namespace gpl {
namespace sim {

/// Parameters and cost model of one inter-device interconnect link (PCIe
/// lane, NVLink-style bridge, ...), the exchange-layer analogue of the
/// channel cost model. Like DeviceSpec this is a pure description: it keeps
/// no count of the traffic it prices — QueryMetrics and the
/// gpl_shard_exchange_bytes_total series hold that. Transfers are priced as
/// serialized on the link (one DMA engine), which is how the sharded
/// executor charges broadcast and partial-result shuffle.
///
/// The default models a PCIe 3.0 x16-class link: ~16 GB/s of payload
/// bandwidth and a few microseconds of per-transfer setup latency.
struct LinkSpec {
  std::string name = "pcie3";
  /// Payload bandwidth in gigabytes (1e9 bytes) per second.
  double gbytes_per_sec = 16.0;
  /// Fixed per-transfer latency (DMA setup, doorbell, completion interrupt).
  double latency_us = 5.0;

  /// Milliseconds to move `bytes` across the link: setup latency plus
  /// payload at the link bandwidth. Zero-byte transfers are free (no
  /// transfer is issued for an empty table).
  double TransferMs(int64_t bytes) const {
    if (bytes <= 0) return 0.0;
    return latency_us / 1e3 +
           static_cast<double>(bytes) / (gbytes_per_sec * 1e6);
  }
};

}  // namespace sim
}  // namespace gpl

#endif  // GPL_SIM_LINK_H_

#ifndef GPL_SIM_COUNTERS_H_
#define GPL_SIM_COUNTERS_H_

#include <cstdint>

#include "sim/device.h"

namespace gpl {
namespace sim {

/// Simulated hardware performance counters, the equivalents of what the
/// paper collects with CodeXL / NVIDIA Visual Profiler:
///  - VALUBusy: fraction of CU-cycles the vector ALUs were busy;
///  - MemUnitBusy: fraction of CU-cycles the memory units were busy;
///  - kernel occupancy: resident work-groups relative to the device maximum;
///  - cache hit ratio: weighted over all memory accesses.
struct HwCounters {
  double elapsed_cycles = 0.0;

  // Work placed on the two per-CU pipelines (CU-cycles).
  double compute_cycles = 0.0;  ///< vector ALU work
  double mem_cycles = 0.0;      ///< global/cache memory work (Mem_cost)
  double channel_cycles = 0.0;  ///< data channel work (DC_cost)

  /// Cycles during which a kernel had free slots and pending work-groups but
  /// could not dispatch because its channel was empty/full (Delay cost).
  double stall_cycles = 0.0;

  /// Host-side overheads (kernel launches, per-tile scheduling).
  double launch_cycles = 0.0;

  // Cache statistics (weighted by access counts).
  double cache_hits = 0.0;
  double cache_accesses = 0.0;

  /// Integral of resident work-groups over time (for occupancy).
  double resident_wg_time = 0.0;

  /// Intermediate result bytes materialized in global memory vs. passed
  /// through channels (Figures 3, 17, 18).
  int64_t bytes_materialized = 0;
  int64_t bytes_via_channel = 0;

  double ValuBusy(const DeviceSpec& device) const;
  double MemUnitBusy(const DeviceSpec& device) const;
  double Occupancy(const DeviceSpec& device) const;
  double CacheHitRatio() const;

  void Accumulate(const HwCounters& other);

  bool operator==(const HwCounters&) const = default;
};

}  // namespace sim
}  // namespace gpl

#endif  // GPL_SIM_COUNTERS_H_

#ifndef GPL_SIM_ENGINE_H_
#define GPL_SIM_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/registry.h"
#include "sim/cache_model.h"
#include "sim/channel.h"
#include "sim/counters.h"
#include "sim/device.h"
#include "sim/fault.h"
#include "sim/kernel_desc.h"

namespace gpl {
namespace trace {
class TraceCollector;
}  // namespace trace

namespace sim {

/// Where a kernel reads its input from / writes its output to.
enum class Endpoint {
  kGlobal,   ///< global memory (materialized)
  kChannel,  ///< data channel to the neighbouring kernel
};

/// One kernel instance in a simulated execution. Cardinalities (rows/bytes)
/// come from the functional execution layer; the simulator only accounts
/// time for them.
struct KernelLaunch {
  KernelTimingDesc desc;

  int64_t rows_in = 0;
  int64_t bytes_in = 0;
  int64_t rows_out = 0;
  int64_t bytes_out = 0;

  /// Work-groups launched per tile (wg_Ki). 0 selects a default of one
  /// work-group per CU per tile.
  int workgroups_per_tile = 0;

  Endpoint input = Endpoint::kGlobal;
  Endpoint output = Endpoint::kGlobal;

  /// Fraction of global-memory input that is cache-resident at kernel start
  /// (1.0 for a small intermediate that was just produced).
  double input_resident_fraction = 0.0;
};

/// A pipelined segment: a chain K0 -> K1 -> ... of kernels connected by data
/// channels wherever Ki.output == kChannel.
struct PipelineSpec {
  std::vector<KernelLaunch> kernels;
  /// Channel configuration for the gap between Ki and Ki+1; must have
  /// size kernels.size()-1 (entries for global gaps are ignored).
  std::vector<ChannelConfig> channel_configs;
  /// Tile size Δ in bytes (of K0 input).
  int64_t tile_bytes = 4 << 20;
  /// Bytes of other cache-hot structures (hash tables being probed, etc.).
  int64_t extra_resident_bytes = 0;

  /// Optional trace sink. When non-null, RunPipeline's trace observer
  /// records per-kernel per-tile spans, stall events and counter samples
  /// into it; nullptr (the default) runs untraced.
  trace::TraceCollector* trace = nullptr;
  /// Optional fault injector, consulted at every kernel-launch and
  /// channel-reservation site; nullptr (the default) never fails. Like the
  /// trace collector it is mutable per-execution state: never share one
  /// across concurrent runs.
  FaultInjector* fault = nullptr;
  /// Display label for the whole-segment span (e.g. the kernel chain).
  std::string label;
};

/// What holds back a pipelined kernel that has work-groups left to start.
enum class Stall {
  kNone,     ///< no channel (it runs, or waits for a CU slot)
  kStarved,  ///< its input channel cannot supply a work-group's input
  kBlocked,  ///< its output channel has no room for a work-group's output
};

/// Watches one RunPipeline run as it happens: `k` indexes
/// PipelineSpec::kernels, `cu` a compute unit, and times are cycles from the
/// start of the run. Every method does nothing by default. An untraced run
/// reports to this base class, a traced run to an observer that records
/// into PipelineSpec::trace; tests pass their own.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  /// A work-group of kernel `k` started on compute unit `cu`.
  virtual void OnDispatch(int /*k*/, int /*cu*/, double /*now*/) {}
  /// A work-group of kernel `k` finished on `cu` and committed its channel
  /// output; nothing has been dispatched into its slot yet.
  virtual void OnComplete(int /*k*/, int /*cu*/, double /*now*/) {}
  /// Kernel `k`'s stall state changed at the end of a dispatch round.
  virtual void OnStall(int /*k*/, Stall /*stall*/, double /*now*/) {}
  /// The dispatch round after a completion ended with `resident`
  /// work-groups on the device.
  virtual void OnRoundEnd(double /*now*/, int /*resident*/) {}
  /// The run drained; `counters` are what RunPipeline returns.
  virtual void OnEnd(const HwCounters& /*counters*/) {}
};

/// The GPU timing simulator. Every Run* method returns the run's HwCounters:
/// the per-query counters the paper reads off the device (VALUBusy,
/// MemUnitBusy, cache hit ratio, occupancy). The per-kernel record is the
/// trace's kernel phases (TraceCollector::AddKernelPhase, Figures 20/29).
/// All Run* methods are const: the simulator holds only the device
/// description and derived models, so a Simulator is safe to share across
/// threads — provided concurrent runs do not share a TraceCollector (the
/// collector is the only mutable state a run touches).
class Simulator {
 public:
  /// With a non-null `metrics`, the simulator registers per-device counters
  /// (kernel launches, tile dispatches, channel reservations, throttle
  /// events) labeled {device=<name>} and bumps them from the Run* methods.
  /// Handles are fetched once here, so the instrumented paths never lock;
  /// with nullptr every update is a single null-check (see obs::Inc).
  explicit Simulator(const DeviceSpec& device,
                     obs::MetricsRegistry* metrics = nullptr);

  const DeviceSpec& device() const { return device_; }
  const CacheModel& cache() const { return cache_; }

  /// Kernel-based execution of a single kernel: the whole input is consumed
  /// in one launch, with input read from and output written to global
  /// memory. `resident_bytes` are competing cache-hot structures. When
  /// `trace` is non-null, the launch is recorded as a span at the
  /// collector's current origin and the origin advances past it. When
  /// `fault` is non-null it is consulted before the launch; an injected
  /// abort/reset returns kTransientDeviceError with nothing recorded.
  Result<HwCounters> RunKernelBatch(const KernelLaunch& launch,
                                    int64_t resident_bytes,
                                    trace::TraceCollector* trace = nullptr,
                                    FaultInjector* fault = nullptr) const;

  /// GPL pipelined execution of a segment: kernels run concurrently,
  /// exchanging tiles through channels (discrete-event simulation at
  /// work-group granularity). With `spec.fault` set, channel allocation can
  /// fail with kChannelAllocFailed (before any simulated work) and kernel
  /// launches with kTransientDeviceError; a failed run leaves no state
  /// behind (all simulation state is local to the call). A spec without
  /// kernels, without a channel config per kernel gap or with a
  /// non-positive tile size is kInvalidArgument. A non-null `observer`
  /// watches the run in place of `spec.trace`.
  Result<HwCounters> RunPipeline(const PipelineSpec& spec,
                                 PipelineObserver* observer = nullptr) const;

  /// GPL (w/o CE) ablation: same tiling, but kernels execute one at a time
  /// per tile, with per-tile kernel launches and materialized intermediates.
  /// Needs no channels, so it doubles as the degraded-execution path when
  /// RunPipeline's channel allocation fails. A fused segment runs here too:
  /// its spec holds one composed launch per fused chain, so the chains'
  /// interior launches and hand-offs are already absent. A spec without
  /// kernels or with a non-positive tile size is kInvalidArgument.
  Result<HwCounters> RunSequentialTiles(const PipelineSpec& spec) const;

 private:
  DeviceSpec device_;
  CacheModel cache_;

  // Metrics handles (null when constructed without a registry). The counters
  // are atomic, so bumping them from const Run* methods keeps the Simulator
  // shareable across threads; same (name, device) handles across worker
  // Simulators alias the same registry series and aggregate naturally.
  obs::Counter* kernel_launches_ = nullptr;
  obs::Counter* tile_dispatches_ = nullptr;
  obs::Counter* channel_reservations_ = nullptr;
  obs::Counter* throttle_events_ = nullptr;
};

}  // namespace sim
}  // namespace gpl

#endif  // GPL_SIM_ENGINE_H_

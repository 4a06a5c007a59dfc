#ifndef GPL_ENGINE_EXEC_OPTIONS_H_
#define GPL_ENGINE_EXEC_OPTIONS_H_

#include <vector>

#include "common/cancel.h"
#include "model/plan_tuner.h"
#include "sim/device.h"

namespace gpl {

namespace trace {
class TraceCollector;
}  // namespace trace

namespace sim {
class FaultInjector;
}  // namespace sim

/// Execution strategies evaluated in the paper.
enum class EngineMode {
  kKbe,      ///< kernel-based execution baseline [15, 16]
  kGplNoCe,  ///< GPL with tiling but without concurrent execution/channels
  kGpl,      ///< the full pipelined engine
  kOcelot,   ///< Ocelot-style KBE baseline (Section 5.5)
  kFused,    ///< GPL + kernel fusion: the tuner picks per segment among
             ///< pipelined stages / fused groups one launch at a time /
             ///< fused groups joined by channels
};

/// Per-execution options shared by every execution entry point (`Engine`,
/// `GplExecutor::Run`, `KbeEngine::Execute`). Factoring them into one struct
/// keeps the engine front-end and the executors from drifting apart (they
/// previously duplicated these fields) and gives multi-query callers one
/// shape to override per call.
///
/// Header note: this lives under engine/ (the public API layer) but is
/// deliberately dependency-light — only the engine modes, the tuner knobs,
/// a trace forward declaration and the cancellation token — so the lower
/// core/ layer can embed it without a cycle.
struct ExecOptions {
  /// GPL: use the analytical model to pick Δ, wg_Ki and channel configs
  /// (Section 4). When false, the defaults / overrides below apply.
  bool use_cost_model = true;

  /// Pins for individual knobs (parameter-sweep benches).
  model::TuningOverrides overrides;

  /// Optional tracing/profiling sink (see trace/trace.h). Executions emit
  /// kernel/tile spans, channel occupancy samples and stall events into it;
  /// successive queries lay out end-to-end on the simulated timeline.
  /// nullptr (the default) disables tracing with no overhead beyond null
  /// checks. The collector is not thread-safe: never share one across
  /// concurrently executing queries.
  trace::TraceCollector* trace = nullptr;

  /// Optional fault injector (see sim/fault.h). When non-null, every kernel
  /// launch and channel reservation consults it; injected faults surface as
  /// kTransientDeviceError / kChannelAllocFailed, except that a GPL segment
  /// whose channel allocation fails re-executes kernel-at-a-time (the w/o-CE
  /// path needs no channels) and counts in QueryMetrics::degraded_segments.
  /// nullptr (the default) disables injection with no overhead beyond null
  /// checks. Like the trace collector the injector is mutable per-execution
  /// state: never share one across concurrently executing queries.
  sim::FaultInjector* fault = nullptr;

  /// Optional cooperative cancellation/deadline token. Executors poll it at
  /// coarse boundaries (GPL: segment starts; KBE: operator starts) and
  /// unwind with kCancelled/kDeadlineExceeded. nullptr disables the checks.
  /// The token must outlive the execution.
  const CancelToken* cancel = nullptr;

  /// Host threads the functional primitive bodies and the tuner grid search
  /// may use (morsel-parallel over the process-wide work-stealing pool; see
  /// common/thread_pool.h). 0 = hardware_concurrency; 1 = fully serial (the
  /// oracle path the parallel implementations are tested against). Purely a
  /// host-side knob: results, hardware counters and simulated cycle counts
  /// are bit-identical at any setting.
  int host_threads = 0;

  /// Memoize TuneSegment results in the engine's TuningCache (shared across
  /// QueryService workers), collapsing steady-state OptimizeWallMs() to a
  /// lookup. Keys are exact segment signatures, so a hit returns precisely
  /// the choice a fresh search would — simulated timing never changes.
  /// Disable (--no-tuning-cache) to re-run the grid search every segment.
  bool use_tuning_cache = true;

  /// Sharded-execution routing (--shards / --link-gbps).
  /// `Engine::Execute(query, exec)` IS the sharded entry point: shards > 1
  /// (or more than one entry in `device_list`) makes it partition its
  /// database lazily and fan the query out over a shard::ShardedExecutor —
  /// the CLI, benches and the service all ride this one surface instead of
  /// constructing executors by hand. shards == 1 runs the plain
  /// single-device path with zero sharding overhead.
  int shards = 1;
  /// Devices of the shard group, one per shard. Empty = `shards` copies of
  /// the engine's own device. When non-empty its size wins over `shards`.
  std::vector<sim::DeviceSpec> device_list;
  /// Link bandwidth override in GB/s for the group's interconnect;
  /// 0 keeps the sim::LinkSpec default (PCIe 3.0-class, 16 GB/s).
  double link_gbps = 0.0;
};

}  // namespace gpl

#endif  // GPL_ENGINE_EXEC_OPTIONS_H_

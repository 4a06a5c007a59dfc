#ifndef GPL_SIM_FAULT_H_
#define GPL_SIM_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sim/channel.h"

namespace gpl {
namespace sim {

/// The fault classes the simulator can inject. Production GPU engines see all
/// four: kernels abort transiently (ECC scrub, watchdog preemption), pipe
/// reservation fails when channel memory is exhausted, whole devices reset,
/// and memory pressure throttles clocks without failing anything.
enum class FaultKind {
  kTransientKernelAbort,  ///< the launch fails; retrying the query may succeed
  kChannelAllocFailed,    ///< channel reservation fails; degradable to w/o-CE
  kDeviceReset,           ///< the device is lost mid-query (also transient)
  kMemoryThrottle,        ///< launch succeeds but runs slower (no error)
};

/// A fault pinned to the Nth visit of its site class (0-based): kernel faults
/// count kernel-launch sites, channel faults count channel-reservation sites.
/// Scheduled faults fire regardless of the probabilistic rates, which makes
/// single-fault unit tests deterministic without sweeping seeds.
struct ScheduledFault {
  FaultKind kind = FaultKind::kTransientKernelAbort;
  int64_t site_index = 0;
};

/// Configuration of a FaultInjector. All rates are per-site probabilities in
/// [0, 1]; the default (all zero, no scheduled faults) never fires, which is
/// the production fast path.
struct FaultConfig {
  uint64_t seed = 0x9e3779b97f4a7c15ULL;

  /// Per kernel-launch site.
  double kernel_abort_rate = 0.0;
  double device_reset_rate = 0.0;
  double throttle_rate = 0.0;
  /// Relative slowdown of a throttled launch's execution (0.5 = +50% cycles).
  double throttle_penalty = 0.5;

  /// Per channel-reservation site.
  double channel_alloc_fail_rate = 0.0;

  std::vector<ScheduledFault> scheduled;

  /// True if any fault can ever fire (callers skip building an injector
  /// otherwise — the nullptr fast path).
  bool enabled() const {
    return kernel_abort_rate > 0.0 || device_reset_rate > 0.0 ||
           throttle_rate > 0.0 || channel_alloc_fail_rate > 0.0 ||
           !scheduled.empty();
  }
};

/// Counters of what an injector actually did (for tests and benches).
struct FaultStats {
  int64_t kernel_launches = 0;    ///< kernel-launch sites visited
  int64_t channel_reservations = 0;  ///< channel-reservation sites visited
  int64_t kernel_aborts = 0;
  int64_t device_resets = 0;
  int64_t throttles = 0;
  int64_t channel_alloc_failures = 0;
  int64_t total_faults() const {
    return kernel_aborts + device_resets + throttles + channel_alloc_failures;
  }
};

/// Deterministic, seeded fault injector. Owned by the caller and passed into
/// executions via ExecOptions (like the TraceCollector): nullptr disables
/// injection with no cost beyond null checks. The simulator consults it at
/// every kernel-launch and channel-reservation site; decisions come from a
/// private xorshift128+ stream, so the same seed over the same (deterministic,
/// simulated) execution fires the same faults at the same sites — regardless
/// of host threads, worker assignment, or wall-clock timing.
///
/// Thread-safety: NOT thread-safe. Use one injector per execution; never
/// share one across concurrently executing queries.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }

  /// Rewinds to the freshly-seeded initial state (site counters and the
  /// random stream), so the same injector can replay a run exactly.
  void Reset();

  /// Kernel-launch site. OK to proceed (with `*throttle_penalty` set to the
  /// extra execution-cycle fraction, 0 for full speed), or a
  /// kTransientDeviceError describing the injected abort/reset.
  Status OnKernelLaunch(const std::string& kernel, double* throttle_penalty);

  /// Channel-reservation site (one per channel allocated for a pipelined
  /// segment). OK, or kChannelAllocFailed.
  Status OnChannelAlloc(const ChannelConfig& config);

  /// Mixes a base seed with a query's submission sequence number and retry
  /// attempt into a per-attempt injector seed (splitmix64 finalizer). The
  /// QueryService uses this so each (query, attempt) pair sees an
  /// independent, reproducible fault stream no matter which worker runs it.
  static uint64_t AttemptSeed(uint64_t base, uint64_t sequence, int attempt);

 private:
  bool ScheduledAt(FaultKind kind, int64_t site_index) const;

  FaultConfig config_;
  Random rng_;
  FaultStats stats_;
};

}  // namespace sim
}  // namespace gpl

#endif  // GPL_SIM_FAULT_H_

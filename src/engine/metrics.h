#ifndef GPL_ENGINE_METRICS_H_
#define GPL_ENGINE_METRICS_H_

#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/device.h"
#include "storage/table.h"

namespace gpl {

/// Metrics of one query execution, combining simulated time, hardware
/// counters, and the cost-model prediction (for GPL runs).
///
/// Time bases: `elapsed_ms`, `predicted_ms` and every counter-derived field
/// are *simulated* device time — deterministic for a given query/database.
/// The `*_wall_ms` fields are *host* wall-clock (planning and tuning run on
/// the host, not on the simulated device); they vary run to run, especially
/// under concurrent execution, and are never part of simulated totals.
struct QueryMetrics {
  double elapsed_ms = 0.0;
  double predicted_ms = 0.0;   ///< analytical-model estimate (GPL only)
  double plan_wall_ms = 0.0;   ///< host wall-clock of query planning
  double tune_wall_ms = 0.0;   ///< host wall-clock of parameter tuning

  sim::HwCounters counters;

  // Derived counter summaries (filled by Finalize).
  double valu_busy = 0.0;
  double mem_unit_busy = 0.0;
  double occupancy = 0.0;
  double cache_hit_ratio = 0.0;

  /// Breakdown of elapsed time by component, scaled so the parts sum to
  /// elapsed_ms (Figures 4, 20, 29).
  double compute_ms = 0.0;
  double mem_ms = 0.0;
  double dc_ms = 0.0;     ///< data channel cost (GPL only)
  double delay_ms = 0.0;  ///< pipeline delay (GPL only)
  double other_ms = 0.0;  ///< launch/scheduling overheads

  int64_t materialized_bytes = 0;  ///< intermediates written to global memory
  int64_t channel_bytes = 0;       ///< intermediates passed through channels

  /// Tuning-cache accounting for this execution (GPL with cost model only).
  /// A hit skips the grid search entirely, so tune_wall_ms collapses toward
  /// zero; hits never change the chosen parameters or simulated timing.
  int64_t tuning_cache_hits = 0;
  int64_t tuning_cache_misses = 0;

  /// Subplan-cache (data memoization) accounting for this execution — GPL
  /// modes with a configured pool::SubplanCache only, 0 elsewhere. A hit
  /// serves a segment's materialized result (output table or built hash
  /// table) from the cache and replays the timing simulation from the cold
  /// run's recorded observations, so simulated fields never change; only
  /// host wall-clock drops.
  int64_t subplan_cache_hits = 0;
  int64_t subplan_cache_misses = 0;

  /// Segments that fell back from pipelined to kernel-at-a-time execution
  /// because channel allocation failed (see ExecOptions::
  /// degrade_on_channel_failure). 0 in fault-free runs.
  int64_t degraded_segments = 0;

  /// Fusion accounting (EngineMode::kFused only; 0 elsewhere). Non-zero
  /// fused_segments proves fusion actually fired — the bench gate checks it
  /// so a silent fallback to the GPL-channel path cannot pass as a win.
  int64_t fused_segments = 0;        ///< segments the tuner ran fused
  int64_t fused_launches_saved = 0;  ///< per-stage launches eliminated
  int64_t fused_bytes_avoided = 0;   ///< hand-off bytes kept in registers

  // ---- Sharded execution (shard::ShardedExecutor; zero/empty for
  // single-device runs). For sharded runs `elapsed_ms` is the parallel
  // makespan — max over per-device times plus exchange plus the serial
  // merge — while `counters` sum the work of every device, so the breakdown
  // fields are rescaled to the makespan. ----
  int64_t num_shards = 0;          ///< devices in the group (0 = unsharded)
  int64_t broadcast_bytes = 0;     ///< relation exchanges crossing links
  int64_t shuffle_bytes = 0;       ///< partial results gathered to device 0
  int64_t exchange_bytes = 0;      ///< broadcast + shuffle
  /// Counterfactual relation-exchange bytes had every non-co-partitioned
  /// relation broadcast — the pre-repartition baseline `broadcast_bytes` is
  /// gated against (a repartitioning plan must come in below it).
  int64_t exchange_all_broadcast_bytes = 0;
  double exchange_ms = 0.0;        ///< serialized link time
  double merge_ms = 0.0;           ///< serial merge on device 0
  /// True when the sharded merge combined pushed-down partial aggregates
  /// (cheap per-group fold); false when the query ran on one device.
  bool partial_combine = false;
  /// Always 0: the row-stitching merge it counted was removed. Kept because
  /// the repository benchmark driver still reads it.
  int64_t stitched_rows = 0;
  std::vector<double> device_elapsed_ms;   ///< per-device simulated time
  std::vector<double> device_utilization;  ///< device time / makespan

  /// Host wall-clock of the whole optimization step (planning + tuning, the
  /// paper's "<5 ms query optimization" claim).
  double OptimizeWallMs() const { return plan_wall_ms + tune_wall_ms; }

  /// Relative error |measured - predicted| / measured (Figures 11, 13, 14).
  double RelativeError() const;

  /// Fraction of execution time spent communicating (mem + channel + delay).
  double CommunicationFraction() const;

  /// Computes derived fields from `counters` for the given device.
  void Finalize(const sim::DeviceSpec& device);
};

/// A query result: the output table plus execution metrics.
struct QueryResult {
  Table table;
  QueryMetrics metrics;
};

}  // namespace gpl

#endif  // GPL_ENGINE_METRICS_H_

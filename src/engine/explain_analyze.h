#ifndef GPL_ENGINE_EXPLAIN_ANALYZE_H_
#define GPL_ENGINE_EXPLAIN_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "plan/logical_plan.h"

namespace gpl {

/// One kernel stage of an executed segment, annotated with the cardinalities
/// actually observed during functional execution (not optimizer estimates).
struct ExplainAnalyzeStage {
  std::string kernel;
  int64_t rows_in = 0;
  int64_t bytes_in = 0;
  int64_t rows_out = 0;
  int64_t bytes_out = 0;
};

/// One executed segment of the plan, annotated with actuals next to the cost
/// model's predictions. `actual_cycles` / `predicted_cycles` are simulated
/// quantities (deterministic); `host_wall_ms` is host wall-clock and must
/// never be compared against them.
struct ExplainAnalyzeSegment {
  int index = 0;
  std::string description;  ///< "k_scan -> k_filter -> ..."
  std::vector<ExplainAnalyzeStage> stages;

  int64_t num_tiles = 0;
  int64_t tile_bytes = 0;       ///< the tuner's Δ choice
  std::vector<int> workgroups;  ///< wg_Ki per stage

  double predicted_cycles = 0.0;  ///< cost-model estimate (T_Sk)
  double actual_cycles = 0.0;     ///< simulated elapsed cycles
  double predicted_ms = 0.0;      ///< predicted_cycles on the device clock
  double actual_ms = 0.0;         ///< actual_cycles on the device clock
  double host_wall_ms = 0.0;      ///< tuning + functional + simulation

  int64_t channel_bytes = 0;       ///< intermediates passed through channels
  int64_t materialized_bytes = 0;  ///< intermediates via global memory

  bool tuning_cache_hit = false;
  bool degraded = false;  ///< fell back to kernel-at-a-time execution

  /// Subplan-cache outcome for this segment's functional work: "hit",
  /// "miss", or "off" (no cache / disabled / fault-injected / uncacheable).
  std::string subplan_cache = "off";

  /// How the segment's kernels executed: "pipelined", "sequential" or
  /// "fused" (model::SegmentEngineName of the executor's per-segment pick).
  std::string engine;
  /// Fusion accounting (engine == "fused" only; 0 otherwise).
  int fused_groups = 0;
  int launches_saved = 0;
  int64_t fused_bytes_avoided = 0;

  /// Signed prediction error, (predicted - actual) / actual * 100.
  /// 0 when the segment simulated to zero cycles.
  double CycleErrorPct() const;
};

/// One Exchange operator of a sharded run, with the cost model's predicted
/// traffic next to the bytes the link actually recorded. Broadcast and
/// repartition exchanges are charged exactly as priced (actual == predicted);
/// the final gather ships whatever the shards really produced.
struct ExplainAnalyzeExchange {
  std::string table;
  std::string kind;  ///< broadcast | repartition | passthrough | gather
  int64_t predicted_bytes = 0;
  int64_t actual_bytes = 0;
  double predicted_ms = 0.0;
};

/// The result of EXPLAIN ANALYZE: the optimized plan, per-segment actuals
/// vs. predictions, and the exact QueryMetrics the same execution would have
/// returned through Engine::ExecutePlan (built by Engine::FinalizeGplMetrics
/// from the same run, so the totals here always match a --metrics-json run
/// of the same query on the simulated-time fields).
///
/// For a sharded ExecOptions (shards > 1 or a multi-entry device_list) the
/// report annotates the distributed plan instead: `plan_text` is the
/// per-shard plan with Exchange operators inline, `exchanges` lists each
/// operator's predicted vs actual traffic, and `segments` is empty (the
/// per-shard segment trees are not surfaced).
struct ExplainAnalyzeReport {
  std::string query;
  std::string mode;
  std::string device;
  std::string plan_text;  ///< PlanToString of the optimized physical plan
  std::vector<ExplainAnalyzeSegment> segments;
  QueryMetrics metrics;
  int64_t output_rows = 0;

  int num_shards = 1;           ///< > 1 for sharded runs
  bool partial_combine = false; ///< sharded merge combined pushed-down partials
  /// Why a sharded run fell back to one device; empty when it combined.
  std::string fallback_reason;
  std::vector<ExplainAnalyzeExchange> exchanges;  ///< sharded runs only

  /// Human-readable rendering: the plan tree followed by the annotated
  /// per-segment tree and a totals line.
  std::string ToString() const;
  /// Machine-readable rendering; always passes trace::ValidateJson. The
  /// "metrics" object uses the same field names as --metrics-json.
  std::string ToJson() const;
};

/// Plans and EXECUTES `query` (EXPLAIN ANALYZE, not EXPLAIN: the results are
/// computed and the timing simulated for real), returning the annotated
/// report. Single-device: only the GPL modes (kGpl, kGplNoCe, kFused) have
/// segmented plans to annotate; KBE/Ocelot return kUnimplemented. A sharded `exec`
/// routes through the engine's ShardedExecutor in any mode and annotates the
/// distributed plan's Exchange operators instead of segments.
Result<ExplainAnalyzeReport> ExplainAnalyze(Engine& engine,
                                            const LogicalQuery& query);
Result<ExplainAnalyzeReport> ExplainAnalyze(Engine& engine,
                                            const LogicalQuery& query,
                                            const ExecOptions& exec);

}  // namespace gpl

#endif  // GPL_ENGINE_EXPLAIN_ANALYZE_H_

#ifndef GPL_ENGINE_EXPLAIN_ANALYZE_H_
#define GPL_ENGINE_EXPLAIN_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "plan/logical_plan.h"
#include "shard/sharded_executor.h"

namespace gpl {

/// The result of EXPLAIN ANALYZE: the optimized plan, the executor's
/// per-segment reports (actuals next to the cost model's predictions), and
/// the exact QueryMetrics the same execution would have returned through
/// Engine::ExecutePlan (built by Engine::FinalizeGplMetrics from the same
/// run, so the totals here always match a --metrics-json run of the same
/// query on the simulated-time fields).
///
/// For a sharded ExecOptions (shards > 1 or a multi-entry device_list) the
/// report annotates the distributed plan instead: `plan_text` is the
/// per-shard plan with Exchange operators inline, `distributed` lists each
/// Exchange operator's predicted traffic (rendered next to the bytes the
/// link actually recorded), and `segments` is empty (the per-shard segment
/// trees are not surfaced).
struct ExplainAnalyzeReport {
  std::string query;
  std::string mode;
  std::string device;
  std::string plan_text;  ///< PlanToString of the optimized physical plan
  /// The run's segments, in execution order. Their cycles are simulated and
  /// deterministic; `host_wall_ms` is host time, never comparable to them.
  std::vector<SegmentReport> segments;
  /// The device whose clock turns the segments' cycles into milliseconds.
  sim::DeviceSpec device_spec;
  QueryMetrics metrics;
  int64_t output_rows = 0;

  /// The distributed plan's shard count, merge and exchanges (num_shards
  /// > 1 for sharded runs only).
  shard::DistributedExplain distributed;

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

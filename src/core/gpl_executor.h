#ifndef GPL_CORE_GPL_EXECUTOR_H_
#define GPL_CORE_GPL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "engine/exec_options.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "model/plan_tuner.h"
#include "model/tuning_cache.h"
#include "plan/segment.h"
#include "pool/subplan_cache.h"
#include "sim/engine.h"
#include "tpch/dbgen.h"

namespace gpl {

/// How a segment met the subplan cache (EXPLAIN ANALYZE `cache:` line).
enum class SubplanOutcome {
  kBypass,  ///< no cache configured / disabled / fault-injected / uncacheable
  kMiss,    ///< computed (and offered for retention)
  kHit,     ///< served from a retained entry or an in-flight attach
};

const char* SubplanOutcomeName(SubplanOutcome outcome);

/// Per-segment outcome: the tuner's choice and prediction, the simulated
/// execution, and the functional observations.
struct SegmentReport {
  std::string description;
  model::TuningChoice tuning;
  sim::HwCounters counters;
  FunctionalRun observations;
  double predicted_cycles = 0.0;
  double measured_cycles = 0.0;
  /// Host wall-clock this segment spent in tuning + functional execution +
  /// simulation. Host time, never comparable to the simulated cycles above.
  double host_wall_ms = 0.0;
  /// True when the tuner's choice came from the shared TuningCache instead
  /// of a fresh grid search.
  bool tuning_cache_hit = false;
  /// True when this segment's channel allocation failed and it re-executed
  /// under kernel-at-a-time tiling (the w/o-CE path) instead.
  bool degraded = false;
  /// How this segment's kernels executed, which picks its simulator path:
  /// kGplChannel in the gpl mode, kKernelAtATime in the noce mode (and after
  /// degradation), the tuner's pick in the fused mode.
  model::SegmentEngine engine = model::SegmentEngine::kGplChannel;
  /// Fusion accounting, written by BuildLaunches (0 unless the segment is
  /// simulated with fused kernel groups).
  int fused_groups = 0;            ///< composed launches in this segment
  int launches_saved = 0;          ///< per-stage launches eliminated
  int64_t fused_bytes_avoided = 0; ///< hand-off bytes kept in registers
  /// Original per-stage kernel names, one per observations.stages entry —
  /// stable across engines (a fused segment's launches are the composed
  /// kernels, not the original stages).
  std::vector<std::string> stage_names;
  /// Whether this segment's functional work was served by the subplan cache.
  /// A hit changes no simulated observable: the timing simulation replays
  /// from the cold run's recorded observations.
  SubplanOutcome subplan_cache = SubplanOutcome::kBypass;
};

/// Outcome of executing a segmented plan with GPL. Per-segment figures
/// (predicted cycles, degradation, fusion and subplan-cache outcomes) live
/// in `segments` only; Engine::FinalizeGplMetrics sums them.
///
/// `counters` are *simulated* quantities and are bit-deterministic for a
/// given plan and database. `tuner_wall_ms` is host wall-clock spent in the
/// tuner: it varies from run to run (and especially under concurrent
/// execution), so it is reported separately and must never be folded into
/// simulated-time totals.
struct GplRunResult {
  Table output;
  std::vector<SegmentReport> segments;
  sim::HwCounters counters;  ///< accumulated across segments (simulated)
  double tuner_wall_ms = 0.0;  ///< host wall-clock spent in the tuner
  int tuning_cache_hits = 0;   ///< segments whose choice came from the cache
  int tuning_cache_misses = 0; ///< segments that ran the full grid search
};

/// The pipelined query executor — the paper's core contribution. Executes a
/// SegmentedPlan segment by segment: resolves the segment input, tunes the
/// pipeline parameters with the analytical model, streams tiles through the
/// kernels functionally, and accounts time with the event simulator.
///
/// Every segment of every GPL-family mode takes the same steps, and the host
/// runs every segment's stages the same way. A segment is simulated as a
/// list of kernel groups: all of size 1 unless the fused mode's tuner chose
/// to fuse it. Its engine decides the simulation: kGplChannel runs the
/// concurrent pipeline with channels; kKernelAtATime and kFused run the
/// sequential w/o-CE tiling, over one composed launch per group when fused.
class GplExecutor {
 public:
  /// `tuning_cache` (optional) memoizes TuneSegment results across runs —
  /// the Engine passes its own or the QueryService's shared instance. It
  /// must outlive the executor. `subplan_cache` (optional) memoizes
  /// materialized subplan *data* — whole segment results, build-side hash
  /// tables included — under exact chain+tuning signatures; same lifetime
  /// rule. Both are thread-safe and shared across worker engines.
  GplExecutor(const tpch::Database* db, const sim::Simulator* simulator,
              const model::CalibrationTable* calibration,
              model::TuningCache* tuning_cache = nullptr,
              pool::SubplanCache* subplan_cache = nullptr);

  /// Executes `plan` under `mode`, which must be kGpl, kGplNoCe or kFused
  /// (InvalidArgument otherwise).
  Result<GplRunResult> Run(const SegmentedPlan& plan, EngineMode mode,
                           const ExecOptions& exec) const;

  /// Builds the model-side description of a segment (optimizer λ estimates;
  /// exposed for the model-evaluation benches).
  model::SegmentDesc DescribeSegment(const Segment& segment,
                                     int64_t input_rows,
                                     int64_t input_bytes) const;

 private:
  /// One segment's state, threaded through the steps below (defined in the
  /// .cc: it holds the subplan-cache compute ticket).
  struct SegmentRun;

  /// Resolves the segment's input as a shared view: a prior segment's output
  /// or a base-table scan view. Neither copies column data (scan views share
  /// the base columns copy-on-write).
  Result<std::shared_ptr<const Table>> ResolveInput(
      const Segment& segment,
      const std::vector<std::shared_ptr<const Table>>& prior_outputs) const;

  bool TuningCacheEnabled(const ExecOptions& exec) const;

  // The per-segment steps Run() takes, in order.
  /// Describes the segment to the model, plans its fusion groups (fused mode)
  /// and computes the tuning signature that scopes both caches.
  void DescribeAndScope(SegmentRun& run, EngineMode mode,
                        const ExecOptions& exec,
                        const pool::SubplanCache* cache) const;
  /// Looks the segment up in the subplan cache; a miss arms the compute
  /// ticket so an error before PublishOutput wakes the waiters.
  void LookupSubplan(SegmentRun& run, const ExecOptions& exec,
                     pool::SubplanCache* cache) const;
  /// Picks Δ, wg_Ki, channels and the segment engine (cost model and tuning
  /// cache, or the paper's defaults).
  void ChooseParameters(SegmentRun& run, EngineMode mode,
                        const ExecOptions& exec) const;
  /// Streams the tiles through the segment's stages (skipped on a subplan
  /// hit) and records per-stage observations. Fused groups run here as
  /// their stages; only the simulation composes them.
  Status RunFunctional(SegmentRun& run) const;
  /// Builds one launch per kernel group from the observed cardinalities,
  /// names the segment (the launch names joined by " -> ") and writes the
  /// fused groups' accounting into the report.
  sim::PipelineSpec BuildLaunches(SegmentRun& run) const;
  /// Simulates the segment's timing from the observed cardinalities on the
  /// engine's simulator path.
  Status Simulate(SegmentRun& run, size_t index,
                  const ExecOptions& exec) const;
  /// Returns the segment output: replayed from the cache, published to it,
  /// or passed through.
  std::shared_ptr<const Table> PublishOutput(SegmentRun& run,
                                             pool::SubplanCache* cache) const;

  const tpch::Database* db_;
  const sim::Simulator* simulator_;
  const model::CalibrationTable* calibration_;
  model::TuningCache* tuning_cache_;      ///< may be null (no memoization)
  pool::SubplanCache* subplan_cache_;     ///< may be null (no data memoization)
  std::string db_tag_;  ///< database identity folded into every cache key
  model::CostModel cost_model_;
};

}  // namespace gpl

#endif  // GPL_CORE_GPL_EXECUTOR_H_

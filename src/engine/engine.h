#ifndef GPL_ENGINE_ENGINE_H_
#define GPL_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/gpl_executor.h"
#include "engine/exec_options.h"
#include "engine/kbe_engine.h"
#include "engine/metrics.h"
#include "model/calibration.h"
#include "plan/cardinality.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "plan/selinger.h"
#include "sim/engine.h"
#include "tpch/dbgen.h"

namespace gpl {

namespace shard {
struct ShardedDatabase;
class ShardedExecutor;
}  // namespace shard

const char* EngineModeName(EngineMode mode);

/// Parses an execution-mode name as used by the CLI/benches
/// ("gpl" | "kbe" | "noce" | "ocelot" | "fused", case-sensitive). The
/// inverse of the short flag spellings, not of EngineModeName.
Result<EngineMode> ParseEngineMode(std::string_view name);

/// Parses a simulated-device name ("amd" | "nvidia") into its DeviceSpec
/// preset (Table 1).
Result<sim::DeviceSpec> ParseDeviceSpec(std::string_view name);

/// Parses a comma-separated device list ("amd", "amd,amd,nvidia", ...) as
/// accepted by the CLI/bench --device flag; each element goes through
/// ParseDeviceSpec, and empty elements or an empty list are errors. A
/// multi-element list defines a (possibly mixed) shard::DeviceGroup.
Result<std::vector<sim::DeviceSpec>> ParseDeviceList(std::string_view csv);

struct EngineOptions {
  sim::DeviceSpec device = sim::DeviceSpec::AmdA10();
  EngineMode mode = EngineMode::kGpl;

  /// Per-execution options (cost-model toggle, knob overrides, trace sink,
  /// cancellation token). These are the defaults for Execute()/ExecutePlan();
  /// the per-call overloads below take a one-off ExecOptions instead.
  ExecOptions exec;

  /// Use radix-partitioned hash joins (Section 3.2) for builds whose
  /// estimated size exceeds half the device cache. GPL modes only; the KBE
  /// baselines always use the simple hash join.
  bool partitioned_joins = false;
  int num_partitions = 8;
  /// Build-size threshold for partitioning; 0 uses half the device cache.
  int64_t partition_threshold_bytes = 0;

  /// Optional pre-computed channel calibration (Section 2.1) for this
  /// options' device. When set, the engine references it instead of running
  /// the calibration microbenchmark at construction — the QueryService uses
  /// this to share one immutable table across its worker engines. Must
  /// outlive the engine and match `device`.
  const model::CalibrationTable* calibration = nullptr;

  /// Optional shared tuning cache. When set, the engine memoizes TuneSegment
  /// results there (the QueryService passes one instance to all workers so a
  /// segment tuned by any worker is a hit for the rest); otherwise the engine
  /// owns a private cache. Must outlive the engine. TuningCache is
  /// thread-safe, unlike the Engine itself.
  model::TuningCache* tuning_cache = nullptr;

  /// Optional shared subplan cache (see pool/subplan_cache.h). When set, the
  /// GPL executor memoizes materialized subplan data there — the
  /// QueryService passes one instance to all workers so a hash table built
  /// by any worker is a hit for the rest. A hit replays the timing
  /// simulation from the cold run's recorded observations, so every
  /// simulated observable is bit-identical to cache-off execution. Bypassed
  /// under fault injection (injected faults must hit the same sites as
  /// isolated execution). nullptr (the default) disables data memoization
  /// entirely. Must outlive the engine; thread-safe.
  pool::SubplanCache* subplan_cache = nullptr;

  /// Optional metrics registry. When set, the engine's Simulator registers
  /// its per-device counters there; nullptr (the default) is the
  /// null-registry fast path — no registration, one dead branch per
  /// instrumented site. Must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional pre-partitioned copy of the engine's database for sharded
  /// execution (ExecOptions::shards / device_list). When it matches the
  /// requested shard count the engine shares it instead of partitioning
  /// lazily — the QueryService partitions once and passes the same instance
  /// to every worker. Must outlive the engine.
  const shard::ShardedDatabase* sharded_db = nullptr;

  /// Optional shared per-device-name calibration tables for shard groups
  /// (ShardedExecutor calibrates any device missing from the map). Must
  /// outlive the engine.
  const std::map<std::string, model::CalibrationTable>* device_calibrations =
      nullptr;
};

/// The public entry point of the library: executes TPC-H-style analytical
/// queries against a generated database under a chosen execution strategy on
/// a simulated GPU, returning real results plus simulated timing/counters.
///
/// Typical use:
///
///   tpch::Database db = tpch::Generate({.scale_factor = 0.1});
///   Engine engine(&db, {.mode = EngineMode::kGpl});
///   auto result = engine.Execute(queries::Q14(0.164));
///   std::cout << result->table.ToString();
///
/// Thread-safety: an Engine instance is NOT thread-safe — it owns mutable
/// executor state (the Ocelot hash-table cache, the trace timeline) and must
/// only be used from one thread at a time. Its inputs are safe to share:
/// the Database (read-only after generation/load), Catalog,
/// model::CalibrationTable and sim::Simulator are all immutable after
/// construction and may be read concurrently. For concurrent queries use
/// one Engine per thread over the shared Database — service::QueryService
/// packages exactly that.
class Engine {
 public:
  Engine(const tpch::Database* db, EngineOptions options);
  ~Engine();  ///< out-of-line: ShardedState is incomplete here

  const EngineOptions& options() const { return options_; }
  const Catalog& catalog() const { return catalog_; }
  const sim::Simulator& simulator() const { return simulator_; }
  const model::CalibrationTable& calibration() const { return *calibration_; }
  /// The tuning cache in use — shared (options.tuning_cache) or engine-owned.
  model::TuningCache& tuning_cache() const { return *tuning_cache_; }

  /// Optimizes and executes a logical query with the engine's default
  /// ExecOptions (options().exec).
  Result<QueryResult> Execute(const LogicalQuery& query);
  /// Same, with one-off per-call execution options (per-query cancellation
  /// tokens, trace sinks, knob pins). This is also the sharded entry point:
  /// exec.shards > 1 (or a multi-entry exec.device_list) routes the query
  /// through a lazily built shard::ShardedExecutor — the database is
  /// partitioned on first use (or shared from EngineOptions::sharded_db)
  /// and the executor is reused while the sharding shape stays the same.
  Result<QueryResult> Execute(const LogicalQuery& query,
                              const ExecOptions& exec);

  /// True when `exec` requests sharded execution (what Execute() routes on).
  static bool IsShardedExec(const ExecOptions& exec) {
    return exec.device_list.size() > 1 || exec.shards > 1;
  }

  /// The sharded executor Execute() would use for `exec` — built (or reused)
  /// without executing anything. EXPLAIN paths call this to render exchange
  /// operators. Fails with kInvalidArgument when `exec` is not sharded.
  Result<shard::ShardedExecutor*> ShardedFor(const ExecOptions& exec);

  /// Executes an already-built physical plan.
  Result<QueryResult> ExecutePlan(const PhysicalOpPtr& plan);
  Result<QueryResult> ExecutePlan(const PhysicalOpPtr& plan,
                                  const ExecOptions& exec);

  /// Executes a plan under the engine's GPL-family mode (gpl, noce, fused)
  /// and returns the detailed per-segment run (tuning choices, predictions,
  /// simulated stats) — used by the model-evaluation benches and EXPLAIN
  /// ANALYZE. KBE and Ocelot engines get InvalidArgument.
  Result<GplRunResult> ExecuteGplDetailed(const PhysicalOpPtr& plan);
  Result<GplRunResult> ExecuteGplDetailed(const PhysicalOpPtr& plan,
                                          const ExecOptions& exec);

  /// Builds the optimized physical plan for a query (EXPLAIN support).
  Result<PhysicalOpPtr> Plan(const LogicalQuery& query) const;

  /// Converts a detailed GPL run into the QueryMetrics that ExecutePlan
  /// would return for it (counters finalized for this engine's device,
  /// predicted_ms, tuning-cache and degradation tallies). Shared by
  /// ExecutePlan and EXPLAIN ANALYZE so the two always agree.
  QueryMetrics FinalizeGplMetrics(const GplRunResult& run) const;

 private:
  const tpch::Database* db_;
  EngineOptions options_;
  Catalog catalog_;
  sim::Simulator simulator_;
  /// Engine-owned calibration, populated unless options.calibration was set.
  std::optional<model::CalibrationTable> owned_calibration_;
  const model::CalibrationTable* calibration_;  ///< owned or shared
  /// Engine-owned tuning cache, allocated unless options.tuning_cache was
  /// set. Declared before gpl_executor_, which captures the pointer.
  std::unique_ptr<model::TuningCache> owned_tuning_cache_;
  model::TuningCache* tuning_cache_;  ///< owned or shared
  GplExecutor gpl_executor_;
  KbeEngine kbe_engine_;
  KbeEngine ocelot_engine_;
  /// Lazily built sharded-execution state (partitioned database + executor),
  /// keyed by the sharding shape of the last sharded Execute() call.
  struct ShardedState;
  std::unique_ptr<ShardedState> sharded_state_;
};

}  // namespace gpl

#endif  // GPL_ENGINE_ENGINE_H_

#ifndef GPL_ENGINE_KBE_ENGINE_H_
#define GPL_ENGINE_KBE_ENGINE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "engine/exec_options.h"
#include "engine/metrics.h"
#include "exec/row_batch.h"
#include "plan/physical_plan.h"
#include "sim/engine.h"
#include "tpch/dbgen.h"

namespace gpl {

/// Behavioural knobs distinguishing the plain KBE baseline ([15, 16] /
/// OmniDB-style) from the Ocelot-style baseline (Section 5.5).
struct KbeFlavor {
  /// Selection emits a bitmap instead of flag/offset integer arrays, and the
  /// prefix-sum kernel is folded into the scatter (Ocelot).
  bool bitmap_selection = false;
  /// Hash tables are cached across queries and reused when the same build
  /// relation and keys recur (Ocelot's memory manager).
  bool cache_hash_tables = false;
  /// Fraction of leaf scans assumed cache-resident (MonetDB pre-fetching).
  double scan_resident_fraction = 0.0;
};

/// Conventional kernel-based execution: every operator is decomposed into
/// kernels that run one at a time over the whole input, materializing every
/// intermediate result in global memory (Section 2.2). The same engine with
/// the Ocelot flavor provides the Section 5.5 comparison baseline.
class KbeEngine {
 public:
  KbeEngine(const tpch::Database* db, const sim::Simulator* simulator,
            KbeFlavor flavor = {});

  /// Executes a physical plan; returns the result table and metrics. When
  /// `exec.trace` is non-null every kernel launch is recorded as a span on
  /// the shared simulated-time axis; when `exec.cancel` is non-null it is
  /// polled at each operator start. The tuner knobs in `exec` are ignored
  /// (KBE has no tiling parameters to tune).
  Result<QueryResult> Execute(const PhysicalOpPtr& plan,
                              const ExecOptions& exec = {});

  /// Executes `plan` with the subtree rooted at `substitute_at` (a node of
  /// `plan`) resolved to the pre-materialized `substitute` table instead of
  /// being executed. The table is treated like a base relation already
  /// resident in global memory — no launch is charged for producing it.
  /// Used by shard::ShardedExecutor to replay the part of a plan above the
  /// root aggregate over the combined per-shard partial aggregates.
  Result<QueryResult> ExecuteWithInput(const PhysicalOpPtr& plan,
                                       const PhysicalOp* substitute_at,
                                       Table substitute,
                                       const ExecOptions& exec = {});

 private:
  struct Context {
    sim::HwCounters counters;
    trace::TraceCollector* trace = nullptr;
    const CancelToken* cancel = nullptr;
    sim::FaultInjector* fault = nullptr;
    /// Substitution point (ExecuteWithInput): Exec returns `substitute`
    /// when it reaches this node. Consumed by move — each node appears once
    /// in a plan tree.
    const PhysicalOp* substitute_at = nullptr;
    Table substitute;
  };

  /// Runs `op`'s subtree. Operators hand each other RowBatches: a filter or
  /// probe passes rows on by position, and only the final result
  /// materializes. Each launch still charges the relation a
  /// kernel-at-a-time engine materializes (rows x row width).
  Result<RowBatch> Exec(const PhysicalOp& op, Context* ctx);
  /// Runs one KBE kernel launch through the simulator and accumulates.
  /// Fails with kTransientDeviceError when the fault injector fires; the
  /// failed launch contributes nothing to the counters.
  Status Record(Context* ctx, const sim::KernelLaunch& launch,
                int64_t resident_bytes);

  const tpch::Database* db_;
  const sim::Simulator* simulator_;
  KbeFlavor flavor_;
  /// Ocelot hash-table cache: build signature -> cached state.
  std::map<std::string, std::shared_ptr<HashJoinState>> hash_table_cache_;
};

}  // namespace gpl

#endif  // GPL_ENGINE_KBE_ENGINE_H_

#ifndef GPL_SHARD_SHARDED_EXECUTOR_H_
#define GPL_SHARD_SHARDED_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "model/exchange_model.h"
#include "plan/physical_plan.h"
#include "shard/device_group.h"
#include "shard/partitioner.h"
#include "sim/link.h"

namespace gpl {
namespace shard {

/// Estimated bytes the partial-aggregate gather ships to device 0: the
/// per-group partial state (counts and superaccumulator digits for sum/avg,
/// a bare running value for min/max — no count column, the combine never
/// consults one) from each of the `num_shards - 1` non-resident shards,
/// using the aggregate's estimated group count. Exposed so tests can pin
/// the estimate against the measured gather bytes of an actual execution.
int64_t EstimatePartialGatherBytes(const PhysicalOp& agg, int num_shards);

/// One Exchange operator of a distributed plan, for EXPLAIN-style reporting:
/// the relation it moves, how, and the cost model's prediction.
struct ExchangeOpReport {
  std::string table;
  ExchangeKind kind = ExchangeKind::kPassthrough;
  int64_t predicted_bytes = 0;
  double predicted_ms = 0.0;
};

/// How a query would execute across the shard group: the per-shard plan with
/// Exchange operators inline, plus per-exchange predictions. Execute()
/// charges exactly these exchanges, so `predicted_bytes` lines up with the
/// broadcast/shuffle byte counts in QueryMetrics.
struct DistributedExplain {
  int num_shards = 1;
  /// Why the query runs unmodified on device 0 instead of combining
  /// per-shard partial aggregates; empty when it combines.
  std::string fallback_reason;
  /// The per-shard plan with Exchange operators inline, or the unmodified
  /// plan when the query falls back to one device.
  std::string plan_text;
  /// Per-relation exchanges (broadcast/repartition/co-partitioned), then the
  /// final gather of per-shard partials to the coordinator. Empty on a
  /// fallback: nothing is exchanged.
  std::vector<ExchangeOpReport> exchanges;
};

/// The merge label EXPLAIN, EXPLAIN ANALYZE, the CLI summary, the trace and
/// the log print: "combine", or "single-device (<reason>)" on a fallback.
std::string MergeLabel(const std::string& fallback_reason);

/// Data-parallel execution of one query across a DeviceGroup: every device
/// runs the same exchange-annotated plan over its shard of the fact table,
/// per-shard partial aggregates are gathered to device 0 over the group's
/// link, and a deterministic combine produces the final table.
///
/// Exchange operators are first-class plan nodes (PhysicalOp::kExchange):
/// planning wraps every non-fact scan of the shard subtree in an Exchange
/// whose kind (broadcast / repartition / co-partitioned passthrough) the
/// cost model picks per relation over the group's sim::Link, memoized in the
/// TuningCache. On a device the operator is an identity — the link cost is
/// charged once at the group level, exactly as priced.
///
/// Bit-identity. Double summation is non-associative, so merging per-shard
/// *rounded* aggregates could never be bit-identical to a single-device run.
/// One rule keeps every result exact:
///
///  - Combine, when provable: if the subtree below the plan's root
///    aggregate provably partitions — every row of its output lands on
///    exactly one shard, which holds for spines bottoming out at the
///    partitioned fact scan joined against replicated or co-partitioned
///    relations — each shard runs the aggregate in partial mode
///    (AggregatePhase::kPartial), emitting exact superaccumulator digits for
///    sums and counts/min/max state. The merge combines partials per group
///    (CombinePartialAggregates — exact, order-independent) and replays only
///    the cheap remainder above the aggregate. The gather ships tiny
///    per-group state instead of fact-table rows.
///
///  - Otherwise, one device: the unmodified plan runs on a coordinator
///    Engine over the unpartitioned database with device 0's options. The
///    single device is the oracle, so the result is exact by construction.
///    The fallback is visible: DistributedExplain::fallback_reason, a
///    "merge=single-device (<reason>)" label, and the
///    gpl_shard_fallbacks_total counter. Its metrics report device 0's
///    time, 0 for the other devices, no exchange and no merge. A 1-device
///    group always runs this way.
///
/// Timing. Simulated elapsed = max over per-device times + serialized
/// exchange (broadcasts + the gather, priced by sim::Link) + the merge
/// charged on device 0. Counters sum all devices' work; per-device times and
/// utilizations land in QueryMetrics.
///
/// Thread-safety: like Engine, an instance is single-threaded; the
/// ShardedDatabase and the source database are read-only and shared.
class ShardedExecutor {
 public:
  /// `db` is the unpartitioned source (planning uses its global statistics),
  /// `sharded` the matching PartitionDatabase output; both must outlive the
  /// executor. `group.size()` must equal `sharded->num_shards()`.
  /// `options.device` is ignored (the group's specs are used); a shared
  /// `options.tuning_cache` is honored, as are per-execution ExecOptions.
  /// `calibrations` optionally supplies precomputed per-device-name
  /// calibration tables (the QueryService shares one map across workers);
  /// missing devices are calibrated here and owned by the executor.
  ShardedExecutor(
      const tpch::Database* db, const ShardedDatabase* sharded,
      DeviceGroup group, EngineOptions options,
      const std::map<std::string, model::CalibrationTable>* calibrations =
          nullptr);

  int num_shards() const { return group_.size(); }
  const DeviceGroup& group() const { return group_; }
  const sim::Link& link() const { return link_; }
  model::TuningCache& tuning_cache() const { return *tuning_cache_; }

  /// How Execute() would run `query`: the exchange-annotated per-shard plan
  /// plus per-exchange predictions, or the unmodified plan and the reason it
  /// falls back to one device. Pure planning — nothing executes and no
  /// link traffic is recorded (exchange decisions do land in the
  /// TuningCache, so a following Execute() prices them by lookup).
  Result<DistributedExplain> Explain(const LogicalQuery& query) const;

  Result<QueryResult> Execute(const LogicalQuery& query);
  Result<QueryResult> Execute(const LogicalQuery& query,
                              const ExecOptions& exec);

 private:
  /// A planned execution: the unmodified plan, and either the reason it
  /// falls back to one device or the combine's exchange-annotated per-shard
  /// plan, the root aggregate it pushes down and the priced exchanges.
  struct DistributedPlan {
    PhysicalOpPtr plan;
    std::string fallback_reason;  ///< non-empty: run `plan` on device 0
    PhysicalOpPtr shard_plan;
    const PhysicalOp* agg = nullptr;  ///< the pushed-down aggregate of `plan`
    model::ExchangePlan exchange;     ///< per-relation decisions (non-fact)
    int64_t gather_bytes = 0;         ///< estimated gather traffic (EXPLAIN)
  };

  /// Plans `query` on the unpartitioned catalog (shared by Execute and
  /// Explain so both see identical plans), picks combine or fallback, and
  /// for a combine annotates the per-shard plan with Exchange operators
  /// (cost-model priced, TuningCache-memoized).
  Result<DistributedPlan> PlanDistributed(const LogicalQuery& query) const;
  /// Exchange plan for the tables scanned inside the shard subtree (tables
  /// above the aggregate run on the merge device and are never shipped).
  Result<model::ExchangePlan> ExchangeForPlan(
      const PhysicalOp& shard_subtree) const;
  /// Runs the unmodified plan on the coordinator (the fallback).
  Result<QueryResult> ExecuteOnCoordinator(const LogicalQuery& query,
                                           const DistributedPlan& dist,
                                           const ExecOptions& exec,
                                           double plan_wall_ms);

  const tpch::Database* db_;
  const ShardedDatabase* sharded_;
  DeviceGroup group_;
  EngineOptions options_;
  /// Calibrations computed here (one per distinct device name not covered
  /// by the shared map passed to the constructor).
  std::map<std::string, model::CalibrationTable> owned_calibrations_;
  std::unique_ptr<model::TuningCache> owned_tuning_cache_;
  model::TuningCache* tuning_cache_;  ///< owned or shared
  std::vector<std::unique_ptr<Engine>> engines_;  ///< one per shard/device
  /// Device 0's engine over the unpartitioned source: plans every query
  /// (global statistics) and runs the fallback.
  std::unique_ptr<Engine> coordinator_;
  sim::Link link_;  ///< accumulates exchange traffic across executions

  // Metrics handles (null without EngineOptions::metrics): exchange traffic
  // by kind, single-device fallbacks, and accumulated simulated busy ms per
  // device slot (the per-shard makespan contribution of every completed
  // query).
  obs::Counter* broadcast_bytes_counter_ = nullptr;
  obs::Counter* shuffle_bytes_counter_ = nullptr;
  obs::Counter* fallbacks_counter_ = nullptr;
  std::vector<obs::Gauge*> slot_busy_gauges_;
};

}  // namespace shard
}  // namespace gpl

#endif  // GPL_SHARD_SHARDED_EXECUTOR_H_

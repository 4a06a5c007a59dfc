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

/// The series every ShardedExecutor on `metrics` adds to: bytes shipped by
/// exchange kind ("broadcast" or "shuffle"), and accumulated simulated busy
/// ms of a device slot. QueryService reads the same series for its Stats().
obs::Counter* ExchangeBytesCounter(obs::MetricsRegistry* metrics,
                                   const std::string& kind);
obs::Gauge* SlotBusyGauge(obs::MetricsRegistry* metrics, int slot,
                          const std::string& device);

/// Data-parallel execution of one query across a DeviceGroup: every device
/// runs the same exchange-annotated plan over its shard of the fact table,
/// per-shard partial aggregates are gathered to device 0 over the group's
/// link, and a deterministic combine produces the final table.
///
/// Exchange operators are first-class plan nodes (PhysicalOp::kExchange):
/// planning wraps every non-fact scan of the shard subtree in an Exchange
/// whose kind (broadcast / repartition / co-partitioned passthrough) the
/// cost model picks per relation over the group's link. On a device the
/// operator is an identity — the link cost is charged once at the group
/// level, exactly as priced.
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
///    gpl_shard_fallbacks_total counter. A 1-device group always runs this
///    way.
///
/// Steps. Execute is PlanDistributed, RunShards, Exchange, Combine and
/// Publish, for a combine and a fallback alike. A fallback is the degenerate
/// case: one run on the coordinator, no exchange, and a combine that passes
/// the one table through — so its metrics report device 0's time, 0 for the
/// other devices, no exchange and no merge.
///
/// Timing. Simulated elapsed = max over per-device times + serialized
/// exchange (broadcasts + the gather, priced by the group's sim::LinkSpec) +
/// the merge charged on device 0. Counters sum all devices' work;
/// per-device times and utilizations land in QueryMetrics.
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
  model::TuningCache& tuning_cache() const { return *tuning_cache_; }

  /// How Execute() would run `query`: the exchange-annotated per-shard plan
  /// plus per-exchange predictions, or the unmodified plan and the reason it
  /// falls back to one device. Pure planning — nothing executes.
  Result<DistributedExplain> Explain(const LogicalQuery& query) const;

  Result<QueryResult> Execute(const LogicalQuery& query);
  /// A non-null `explain` receives the plan that ran (EXPLAIN ANALYZE).
  Result<QueryResult> Execute(const LogicalQuery& query,
                              const ExecOptions& exec,
                              DistributedExplain* explain = nullptr);

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

    bool combines() const { return fallback_reason.empty(); }
  };

  /// Link traffic of one execution: the planned relation exchanges plus the
  /// gather of every non-resident partial to device 0.
  struct LinkTraffic {
    int64_t shuffle_bytes = 0;
    double start_ms = 0.0;  ///< the slowest device's run: the link waits
    double ms = 0.0;        ///< serialized link time, broadcasts included
  };

  /// Plans `query` on the unpartitioned catalog (shared by Execute and
  /// Explain so both see identical plans), picks combine or fallback, and
  /// for a combine annotates the per-shard plan with Exchange operators
  /// (cost-model priced).
  Result<DistributedPlan> PlanDistributed(const LogicalQuery& query) const;
  /// Exchange plan for the tables scanned inside the shard subtree (tables
  /// above the aggregate run on the merge device and are never shipped).
  Result<model::ExchangePlan> ExchangeForPlan(
      const PhysicalOp& shard_subtree) const;
  /// EXPLAIN's view of a planned execution.
  DistributedExplain Render(const DistributedPlan& dist) const;

  // The steps of Execute, in order; a fallback runs the same steps.
  /// One partial per shard, serially in shard order; a fallback's one run is
  /// the unmodified plan on the coordinator, traced by the caller's trace.
  Result<std::vector<QueryResult>> RunShards(const DistributedPlan& dist,
                                             const ExecOptions& exec);
  /// Prices the link traffic (none on a fallback) and lays the devices'
  /// runs and the exchange out on the trace, ahead of the merge kernels.
  LinkTraffic Exchange(const LogicalQuery& query, const DistributedPlan& dist,
                       const std::vector<QueryResult>& partials,
                       const ExecOptions& exec) const;
  /// The merged table, with the counters of device 0's merge work: folds the
  /// partials (moving their tables out) and replays the plan above the
  /// aggregate. A fallback's one table passes through with zero counters.
  Result<QueryResult> Combine(const DistributedPlan& dist,
                              std::vector<QueryResult>* partials,
                              const ExecOptions& exec) const;
  /// Builds the result's QueryMetrics from the devices' runs, the exchange
  /// and the merge, and Records them.
  QueryResult Publish(const LogicalQuery& query, const DistributedPlan& dist,
                      const std::vector<QueryResult>& partials,
                      const LinkTraffic& traffic, QueryResult merge,
                      double plan_wall_ms);
  /// Adds a published run to the obs series and writes its log line.
  void Record(const LogicalQuery& query, const DistributedPlan& dist,
              const QueryMetrics& m, double max_device_ms);

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

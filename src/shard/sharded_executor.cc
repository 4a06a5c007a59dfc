#include "shard/sharded_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "common/logging.h"
#include "engine/kbe_engine.h"
#include "exec/exact_sum.h"
#include "exec/primitives.h"
#include "sim/engine.h"
#include "trace/json.h"
#include "trace/trace.h"

namespace gpl {
namespace shard {

namespace {

/// Cycles on `device` corresponding to `ms` (inverse of CyclesToMs).
double MsToCycles(const sim::DeviceSpec& device, double ms) {
  return ms * static_cast<double>(device.core_mhz) * 1e3;
}

/// Collects the referenced columns of every scan in the plan tree.
void CollectScanColumns(const PhysicalOp& op,
                        std::map<std::string, std::set<std::string>>* out) {
  if (op.kind == PhysicalOp::Kind::kScan) {
    std::set<std::string>& cols = (*out)[op.table];
    cols.insert(op.columns.begin(), op.columns.end());
  }
  if (op.child != nullptr) CollectScanColumns(*op.child, out);
  if (op.build_child != nullptr) CollectScanColumns(*op.build_child, out);
}

/// One step on the root-to-fact-scan path: the node, and whether the edge
/// from its parent was the build side of a hash join.
struct PathStep {
  const PhysicalOp* node;
  bool via_build;
};

/// Appends the path from `op` down to the scan of `fact` (inclusive).
/// Returns false (and leaves `path` unchanged) if the subtree has none.
bool FindFactPath(const PhysicalOp& op, const std::string& fact,
                  bool via_build, std::vector<PathStep>* path) {
  path->push_back({&op, via_build});
  if (op.kind == PhysicalOp::Kind::kScan && op.table == fact) return true;
  if (op.child != nullptr && FindFactPath(*op.child, fact, false, path)) {
    return true;
  }
  if (op.build_child != nullptr &&
      FindFactPath(*op.build_child, fact, true, path)) {
    return true;
  }
  path->pop_back();
  return false;
}

ExchangeKind KindForStrategy(model::ExchangeStrategy strategy) {
  switch (strategy) {
    case model::ExchangeStrategy::kCoPartitioned:
      return ExchangeKind::kPassthrough;
    case model::ExchangeStrategy::kBroadcast:
      return ExchangeKind::kBroadcast;
    case model::ExchangeStrategy::kRepartition:
      return ExchangeKind::kRepartition;
  }
  return ExchangeKind::kPassthrough;
}

/// How one subtree's output is laid out across the shard group.
struct DistInfo {
  /// True: the union of per-shard outputs is exactly the global relation,
  /// each row on one shard. False: every shard holds the full relation.
  bool partitioned = false;
  /// The partition-equivalence set: every output column whose value, on
  /// each row, provably equals the fact partitioning key that routed the
  /// row to its shard. The set starts as the scan's partition column and
  /// grows through equi-join chains — a join key pair (p = b) with p in the
  /// set makes b partition-equivalent on every output row, and vice versa.
  /// Empty for replicated subtrees.
  std::set<std::string> partition_cols;
};

bool Contains(const std::set<std::string>& set, const std::string& name) {
  return set.find(name) != set.end();
}

/// The join-key column pairs of a hash join, for columns-only keys:
/// (probe_keys[i], build_keys[i]) as names. Pairs with expression keys are
/// skipped — an expression over the key loses the co-location proof.
std::vector<std::pair<std::string, std::string>> ColumnKeyPairs(
    const PhysicalOp& op) {
  std::vector<std::pair<std::string, std::string>> pairs;
  const size_t n = std::min(op.probe_keys.size(), op.build_keys.size());
  for (size_t i = 0; i < n; ++i) {
    std::string pk, bk;
    if (op.probe_keys[i]->IsColumnRef(&pk) &&
        op.build_keys[i]->IsColumnRef(&bk)) {
      pairs.emplace_back(std::move(pk), std::move(bk));
    }
  }
  return pairs;
}

/// Proves (conservatively) how the subtree's output distributes across
/// shards. Returns false when no proof exists (an aggregate, sort or
/// exchange inside the subtree, or an unaligned partitioned join) — the
/// caller then runs the query on one device. The invariants:
/// "partitioned" outputs are disjoint across shards
/// with union equal to the single-device output; "replicated" outputs are
/// identical on every shard. Joins preserve them: probe-partitioned x
/// build-replicated (and the converse) emit each global row on exactly one
/// shard regardless of keys; partitioned x partitioned is shard-local iff
/// some aligned key pair joins the two sides' partition-equivalence sets —
/// matching rows then agree on a column the partitioner co-located, so they
/// live on the same shard. A compound key only tightens the match: extra
/// key pairs restrict rows, and a row subset preserves partitioning. This
/// is what admits the planner's merged multi-edge joins (e.g. Q5's
/// {l_orderkey, l_suppkey} = {o_orderkey, s_suppkey}: the aligned first
/// pair is the co-located one) and key-order permutations of the same join.
bool ClassifySubtree(const PhysicalOp& op, const ShardedDatabase& sharded,
                     DistInfo* out) {
  switch (op.kind) {
    case PhysicalOp::Kind::kScan: {
      out->partitioned = sharded.IsPartitioned(op.table);
      out->partition_cols.clear();
      if (out->partitioned) {
        const std::string key = HashPartitionKeyColumn(op.table);
        out->partition_cols.insert(op.alias.empty() ? key
                                                    : op.alias + "_" + key);
      }
      return true;
    }
    case PhysicalOp::Kind::kFilter:
      // Row subset: distribution and surviving columns are unchanged.
      return ClassifySubtree(*op.child, sharded, out);
    case PhysicalOp::Kind::kProject: {
      if (!ClassifySubtree(*op.child, sharded, out)) return false;
      if (out->partitioned && !out->partition_cols.empty()) {
        // A key survives only through an identity projection (possibly
        // renamed); expressions over it lose the co-location proof.
        std::set<std::string> surviving;
        for (const ProjectedColumn& p : op.projections) {
          std::string name;
          if (p.expr->IsColumnRef(&name) && Contains(out->partition_cols, name)) {
            surviving.insert(p.name);
          }
        }
        out->partition_cols = std::move(surviving);
      }
      return true;
    }
    case PhysicalOp::Kind::kHashJoin: {
      DistInfo probe, build;
      if (!ClassifySubtree(*op.child, sharded, &probe)) return false;
      if (!ClassifySubtree(*op.build_child, sharded, &build)) return false;
      if (!probe.partitioned && !build.partitioned) {
        // Replicated x replicated: every shard computes the same join.
        out->partitioned = false;
        out->partition_cols.clear();
        return true;
      }
      const std::vector<std::pair<std::string, std::string>> pairs =
          ColumnKeyPairs(op);
      const std::set<std::string> payload(op.build_payload.begin(),
                                          op.build_payload.end());
      if (probe.partitioned && build.partitioned) {
        // Shard-local only when some aligned key pair joins the two
        // partition-equivalence sets: matching rows then share a co-located
        // key value, so they live on the same shard. Any other key pairs
        // merely restrict the match further.
        bool aligned = false;
        for (const auto& [pk, bk] : pairs) {
          if (Contains(probe.partition_cols, pk) &&
              Contains(build.partition_cols, bk)) {
            aligned = true;
            break;
          }
        }
        if (!aligned) return false;
      }
      // The output row lands on the shard of its probe row (or of its build
      // row when only the build side partitions) — partitioned either way.
      out->partitioned = true;
      out->partition_cols.clear();
      // Probe columns all flow through; build columns survive via payload.
      if (probe.partitioned) {
        out->partition_cols = probe.partition_cols;
      }
      if (build.partitioned) {
        for (const std::string& col : build.partition_cols) {
          if (Contains(payload, col)) out->partition_cols.insert(col);
        }
      }
      // Equi-join equivalence: on every output row each key pair satisfies
      // probe_col == build_col, so partition-equivalence crosses the join in
      // both directions — a build key tied to a partition-equivalent probe
      // key is itself partition-equivalent (if its column survives), and
      // vice versa. This threads the proof through functionally tied
      // compound keys (e.g. the partsupp spine's ps keys equal the fact's
      // l keys on every joined row).
      for (const auto& [pk, bk] : pairs) {
        const bool pk_in =
            probe.partitioned && Contains(probe.partition_cols, pk);
        const bool bk_in =
            build.partitioned && Contains(build.partition_cols, bk);
        if (pk_in && Contains(payload, bk)) out->partition_cols.insert(bk);
        if (bk_in) out->partition_cols.insert(pk);
      }
      return true;
    }
    default:
      // Aggregate/sort/exchange below the pushdown point: no proof.
      return false;
  }
}

/// One attach join on the fact path: the fact-side child (the probe spine a
/// repartition of the attached relations would re-key) and the estimated
/// bytes of its output (est_rows x 8 bytes/col x output columns).
struct AttachPoint {
  const PhysicalOp* spine_node = nullptr;
  int64_t spine_bytes = 0;
};

/// Maps every table scanned off the fact path of `subtree` to its attach
/// point — the hash join on the path where that table's subtree meets the
/// spine. Joins high on the path sit above selective filters and earlier
/// joins, so their spine is far narrower than the raw fact scan; pricing a
/// repartition against the attach-join spine (not the whole fact table)
/// is what lets mid-spine repartitions beat broadcasts honestly. A table
/// attaching at several joins keeps the widest spine (conservative).
/// Tables in a subtree with no fact scan get no entry (callers fall back
/// to fact bytes).
std::map<std::string, AttachPoint> FindAttachPoints(const PhysicalOp& subtree,
                                                    const std::string& fact) {
  std::map<std::string, AttachPoint> out;
  std::vector<PathStep> path;
  if (!FindFactPath(subtree, fact, false, &path)) return out;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const PhysicalOp* node = path[i].node;
    if (node->kind != PhysicalOp::Kind::kHashJoin) continue;
    const PhysicalOp* fact_child = path[i + 1].node;
    const PhysicalOp* off_spine = path[i + 1].via_build
                                      ? node->child.get()
                                      : node->build_child.get();
    AttachPoint point;
    point.spine_node = fact_child;
    point.spine_bytes = static_cast<int64_t>(
        fact_child->est_rows * 8.0 *
        static_cast<double>(OutputColumns(*fact_child).size()));
    std::map<std::string, std::set<std::string>> scans;
    CollectScanColumns(*off_spine, &scans);
    for (const auto& [table, columns] : scans) {
      auto it = out.find(table);
      if (it == out.end() || point.spine_bytes > it->second.spine_bytes) {
        out[table] = point;
      }
    }
  }
  return out;
}

/// Deep-clones the tree, wrapping every non-fact scan that has an exchange
/// decision in an Exchange operator of the matching kind. The fact scan
/// stays bare — it is the pivot of the exchange, never itself moved. A
/// repartitioning relation's operator carries its own traffic only; the
/// shared spine relocation its plan may include is rendered once, as a
/// repartition Exchange wrapping `spine_node` (the fact-side child of the
/// paying relation's attach join) — the operator is an identity on a
/// device, the relocation is charged at the group level exactly as priced.
PhysicalOpPtr AnnotateExchanges(
    const PhysicalOp& op, const std::string& fact,
    const std::map<std::string, const model::ExchangeDecision*>& decisions,
    const PhysicalOp* spine_node, const std::string& spine_table,
    int64_t spine_bytes) {
  auto copy = std::make_shared<PhysicalOp>(op);
  if (op.child != nullptr) {
    copy->child = AnnotateExchanges(*op.child, fact, decisions, spine_node,
                                    spine_table, spine_bytes);
  }
  if (op.build_child != nullptr) {
    copy->build_child = AnnotateExchanges(*op.build_child, fact, decisions,
                                          spine_node, spine_table,
                                          spine_bytes);
  }
  PhysicalOpPtr result = std::move(copy);
  if (op.kind == PhysicalOp::Kind::kScan && op.table != fact) {
    auto it = decisions.find(op.table);
    if (it != decisions.end()) {
      const model::ExchangeDecision& d = *it->second;
      result = MakeExchange(std::move(result), KindForStrategy(d.strategy),
                            op.table, d.bytes - d.spine_bytes);
    }
  }
  if (&op == spine_node) {
    result = MakeExchange(std::move(result), ExchangeKind::kRepartition,
                          "spine:" + spine_table, spine_bytes);
  }
  return result;
}

}  // namespace

int64_t EstimatePartialGatherBytes(const PhysicalOp& agg, int num_shards) {
  int64_t per_row = 8 * static_cast<int64_t>(agg.group_by.size());
  for (const AggSpec& a : agg.aggregates) {
    switch (a.func) {
      case AggSpec::kSum:
      case AggSpec::kAvg:
        // Count + superaccumulator meta + digits.
        per_row += 8 * (2 + ExactFloat64Sum::kDigits);
        break;
      case AggSpec::kMin:
      case AggSpec::kMax:
        // Running value only — the partial wire format carries no count for
        // min/max (the combine never consults one).
        per_row += 8;
        break;
      case AggSpec::kCount:
        per_row += 8;  // count column
        break;
    }
  }
  const int64_t groups = static_cast<int64_t>(agg.est_rows);
  return per_row * groups * static_cast<int64_t>(num_shards - 1);
}

std::string MergeLabel(const std::string& fallback_reason) {
  return fallback_reason.empty() ? "combine"
                                 : "single-device (" + fallback_reason + ")";
}

ShardedExecutor::ShardedExecutor(
    const tpch::Database* db, const ShardedDatabase* sharded, DeviceGroup group,
    EngineOptions options,
    const std::map<std::string, model::CalibrationTable>* calibrations)
    : db_(db),
      sharded_(sharded),
      group_(std::move(group)),
      options_(std::move(options)),
      owned_tuning_cache_(options_.tuning_cache != nullptr
                              ? nullptr
                              : std::make_unique<model::TuningCache>()),
      tuning_cache_(options_.tuning_cache != nullptr
                        ? options_.tuning_cache
                        : owned_tuning_cache_.get()),
      link_(group_.link) {
  GPL_CHECK(db_ != nullptr && sharded_ != nullptr);
  GPL_CHECK(group_.size() == sharded_->num_shards())
      << "device group size " << group_.size() << " != shard count "
      << sharded_->num_shards();

  engines_.reserve(static_cast<size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    const sim::DeviceSpec& device = group_.devices[static_cast<size_t>(i)];
    const model::CalibrationTable* calibration = nullptr;
    if (calibrations != nullptr) {
      auto it = calibrations->find(device.name);
      if (it != calibrations->end()) calibration = &it->second;
    }
    if (calibration == nullptr) {
      auto it = owned_calibrations_.find(device.name);
      if (it == owned_calibrations_.end()) {
        // One calibration per distinct device spec, shared by its shards.
        it = owned_calibrations_
                 .emplace(device.name,
                          model::CalibrationTable::Run(sim::Simulator(device)))
                 .first;
      }
      calibration = &it->second;
    }
    EngineOptions shard_options = options_;
    shard_options.device = device;
    shard_options.calibration = calibration;
    shard_options.tuning_cache = tuning_cache_;
    // Shard engines are leaves: strip anything that could re-shard.
    shard_options.sharded_db = nullptr;
    shard_options.device_calibrations = nullptr;
    shard_options.exec.shards = 1;
    shard_options.exec.device_list.clear();
    engines_.push_back(std::make_unique<Engine>(
        &sharded_->shards[static_cast<size_t>(i)], shard_options));
    if (i == 0) coordinator_ = std::make_unique<Engine>(db_, shard_options);
  }

  if (obs::MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    broadcast_bytes_counter_ = metrics->GetCounter(
        "gpl_shard_exchange_bytes_total",
        "Bytes shipped between devices by exchange kind",
        {{"kind", "broadcast"}});
    shuffle_bytes_counter_ = metrics->GetCounter(
        "gpl_shard_exchange_bytes_total",
        "Bytes shipped between devices by exchange kind",
        {{"kind", "shuffle"}});
    fallbacks_counter_ = metrics->GetCounter(
        "gpl_shard_fallbacks_total",
        "Sharded queries run unmodified on device 0 instead of combining "
        "per-shard partial aggregates");
    slot_busy_gauges_.reserve(static_cast<size_t>(group_.size()));
    for (int i = 0; i < group_.size(); ++i) {
      slot_busy_gauges_.push_back(metrics->GetGauge(
          "gpl_shard_device_busy_ms",
          "Accumulated simulated busy time per device slot (ms)",
          {{"slot", std::to_string(i)},
           {"device", group_.devices[static_cast<size_t>(i)].name}}));
    }
  }
}

Result<model::ExchangePlan> ShardedExecutor::ExchangeForPlan(
    const PhysicalOp& shard_subtree) const {
  std::map<std::string, std::set<std::string>> scans;
  CollectScanColumns(shard_subtree, &scans);
  const std::map<std::string, AttachPoint> attach_points =
      FindAttachPoints(shard_subtree, sharded_->fact_table());

  int64_t fact_bytes = 0;
  std::vector<model::ExchangeInput> inputs;
  for (const auto& [table, columns] : scans) {
    const Table* base = db_->ByName(table);
    if (base == nullptr) return Status::NotFound("unknown table: " + table);
    int64_t bytes = 0;
    for (const std::string& column : columns) {
      if (!base->HasColumn(column)) {
        return Status::NotFound("unknown column " + table + "." + column);
      }
      bytes += base->GetColumn(column).byte_size();
    }
    if (table == sharded_->fact_table()) {
      fact_bytes = bytes;
      continue;  // the pivot of the exchange, not itself exchanged
    }
    model::ExchangeInput input;
    input.table = table;
    input.bytes = bytes;
    input.rows = base->num_rows();
    input.co_partitioned = sharded_->IsPartitioned(table);
    auto it = attach_points.find(table);
    if (it != attach_points.end()) {
      input.spine_bytes = it->second.spine_bytes;
    }
    inputs.push_back(std::move(input));
  }
  // Memoized per plan: a service replaying the same sharded queries prices
  // the whole exchange once (TuningCache::ExchangePlanSignature) — the
  // shared spine relocation couples the per-relation decisions, so nothing
  // finer than the plan can be cached safely.
  return model::PlanExchange(inputs, group_.link, group_.size(), fact_bytes,
                             tuning_cache_);
}

Result<ShardedExecutor::DistributedPlan> ShardedExecutor::PlanDistributed(
    const LogicalQuery& query) const {
  DistributedPlan dist;
  GPL_ASSIGN_OR_RETURN(dist.plan, coordinator_->Plan(query));
  if (group_.size() == 1) {
    dist.fallback_reason = "1-device group";
    return dist;
  }

  // Partial-aggregate pushdown: the root spine must be [sort|project|filter]*
  // above one aggregate whose input subtree provably partitions.
  const PhysicalOp* agg = nullptr;
  for (const PhysicalOp* n = dist.plan.get(); n != nullptr;
       n = n->child.get()) {
    if (n->kind == PhysicalOp::Kind::kAggregate) {
      agg = n;
      break;
    }
    if (n->kind != PhysicalOp::Kind::kSort &&
        n->kind != PhysicalOp::Kind::kProject &&
        n->kind != PhysicalOp::Kind::kFilter) {
      break;
    }
  }
  if (agg == nullptr || agg->child == nullptr) {
    dist.fallback_reason = "no aggregate at the plan root";
    return dist;
  }
  DistInfo info;
  if (!ClassifySubtree(*agg->child, *sharded_, &info)) {
    dist.fallback_reason = "aggregate input not provably partitioned";
    return dist;
  }
  if (!info.partitioned) {
    dist.fallback_reason = "aggregate input does not scan " +
                           sharded_->fact_table();
    return dist;
  }

  GPL_ASSIGN_OR_RETURN(dist.exchange, ExchangeForPlan(*agg->child));
  std::map<std::string, const model::ExchangeDecision*> decisions;
  for (const model::ExchangeDecision& d : dist.exchange.decisions) {
    decisions.emplace(d.table, &d);
  }
  // The paying repartition's spine relocation renders as a repartition
  // Exchange wrapping the fact-side child of its attach join.
  const PhysicalOp* spine_node = nullptr;
  if (dist.exchange.has_spine) {
    const std::map<std::string, AttachPoint> attach_points =
        FindAttachPoints(*agg->child, sharded_->fact_table());
    auto it = attach_points.find(dist.exchange.spine_table);
    if (it != attach_points.end()) spine_node = it->second.spine_node;
  }
  auto partial = std::make_shared<PhysicalOp>(*agg);
  partial->child =
      AnnotateExchanges(*agg->child, sharded_->fact_table(), decisions,
                        spine_node, dist.exchange.spine_table,
                        dist.exchange.spine_bytes);
  partial->partial_aggregate = true;
  dist.gather_bytes = EstimatePartialGatherBytes(*agg, group_.size());
  dist.shard_plan = MakeExchange(std::move(partial), ExchangeKind::kGather,
                                 "partial-aggregates", dist.gather_bytes);
  dist.agg = agg;
  return dist;
}

Result<DistributedExplain> ShardedExecutor::Explain(
    const LogicalQuery& query) const {
  DistributedExplain out;
  out.num_shards = group_.size();
  GPL_ASSIGN_OR_RETURN(DistributedPlan dist, PlanDistributed(query));
  out.fallback_reason = dist.fallback_reason;
  if (!dist.fallback_reason.empty()) {
    // The unmodified plan runs on device 0; nothing is exchanged.
    out.plan_text = PlanToString(*dist.plan);
    return out;
  }
  out.plan_text = PlanToString(*dist.shard_plan);
  out.exchanges.reserve(dist.exchange.decisions.size() + 2);
  for (const model::ExchangeDecision& d : dist.exchange.decisions) {
    // Report the relation's own traffic; the shared spine relocation gets
    // its own entry below. The payer's ms already covers both (one DMA), so
    // the spine entry reports 0 ms — entries still sum to the plan totals.
    out.exchanges.push_back(
        {d.table, KindForStrategy(d.strategy), d.bytes - d.spine_bytes, d.ms});
  }
  if (dist.exchange.has_spine) {
    out.exchanges.push_back({"spine:" + dist.exchange.spine_table,
                             ExchangeKind::kRepartition,
                             dist.exchange.spine_bytes, 0.0});
  }
  ExchangeOpReport gather;
  gather.table = "partial-aggregates";
  gather.kind = ExchangeKind::kGather;
  gather.predicted_bytes = dist.gather_bytes;
  const int senders = group_.size() - 1;
  if (senders > 0 && dist.gather_bytes > 0) {
    sim::Link probe(group_.link);
    gather.predicted_ms = static_cast<double>(senders) *
                          probe.TransferMs(dist.gather_bytes / senders);
  }
  out.exchanges.push_back(std::move(gather));
  return out;
}

Result<QueryResult> ShardedExecutor::Execute(const LogicalQuery& query) {
  return Execute(query, options_.exec);
}

Result<QueryResult> ShardedExecutor::ExecuteOnCoordinator(
    const LogicalQuery& query, const DistributedPlan& dist,
    const ExecOptions& exec, double plan_wall_ms) {
  const std::string merge = MergeLabel(dist.fallback_reason);
  if (exec.trace != nullptr) {
    // Nothing crosses the link: a zero-length exchange span carries the
    // merge label where a combine's exchange span would.
    const int link_track =
        exec.trace->TrackId("exchange (" + link_.spec().name + ")");
    exec.trace->AddSpan(link_track, query.name + " exchange", "shard.exchange",
                        0.0, 0.0,
                        {{"broadcast_bytes", "0"},
                         {"shuffle_bytes", "0"},
                         {"merge", "\"" + trace::JsonEscape(merge) + "\""}});
  }
  ExecOptions single = exec;
  single.shards = 1;
  single.device_list.clear();
  GPL_ASSIGN_OR_RETURN(QueryResult result,
                       coordinator_->ExecutePlan(dist.plan, single));
  // Device 0 did all the work; the other devices idled, nothing was
  // exchanged and nothing merged.
  QueryMetrics& m = result.metrics;
  m.plan_wall_ms += plan_wall_ms;
  m.num_shards = group_.size();
  m.device_elapsed_ms.assign(static_cast<size_t>(group_.size()), 0.0);
  m.device_elapsed_ms.front() = m.elapsed_ms;
  m.device_utilization.assign(static_cast<size_t>(group_.size()), 0.0);
  m.device_utilization.front() = 1.0;
  obs::Inc(fallbacks_counter_);
  if (!slot_busy_gauges_.empty()) {
    obs::Add(slot_busy_gauges_.front(), m.elapsed_ms);
  }
  GPL_SLOG(Info, "shard")
      .Field("query", query.name)
      .Field("group", group_.ToString())
      .Field("merge", merge)
      .Field("sim_ms", m.elapsed_ms)
      << "sharded query ran on one device";
  return result;
}

Result<QueryResult> ShardedExecutor::Execute(const LogicalQuery& query,
                                             const ExecOptions& exec) {
  if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
  const sim::DeviceSpec& device0 = group_.devices.front();

  // Plan once, on the unpartitioned database's statistics: every shard runs
  // the same exchange-annotated plan, exactly as a coordinator would ship it.
  const auto plan_start = std::chrono::steady_clock::now();
  GPL_ASSIGN_OR_RETURN(DistributedPlan dist, PlanDistributed(query));
  const double plan_wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - plan_start)
                                  .count();
  if (!dist.fallback_reason.empty()) {
    return ExecuteOnCoordinator(query, dist, exec, plan_wall_ms);
  }

  // Per-shard execution. Serial on the host (results are simulated, wall
  // clock is not the metric); the shared fault injector and cancellation
  // token are polled in shard order, keeping fault schedules deterministic.
  ExecOptions shard_exec = exec;
  shard_exec.trace = nullptr;  // the executor emits the group-level timeline
  shard_exec.shards = 1;       // shard engines never re-shard
  shard_exec.device_list.clear();
  std::vector<QueryResult> partials;
  partials.reserve(static_cast<size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
    GPL_ASSIGN_OR_RETURN(
        QueryResult partial,
        engines_[static_cast<size_t>(i)]->ExecutePlan(dist.shard_plan,
                                                      shard_exec));
    partials.push_back(std::move(partial));
  }

  // Exchange: the per-relation broadcasts (priced by the Exchange operators'
  // cost model) plus gathering every non-resident partial to device 0.
  link_.Record(dist.exchange.total_bytes, dist.exchange.total_ms);
  int64_t shuffle_bytes = 0;
  double shuffle_ms = 0.0;
  for (size_t i = 1; i < partials.size(); ++i) {
    const int64_t bytes = partials[i].table.byte_size();
    shuffle_bytes += bytes;
    shuffle_ms += link_.Transfer(bytes);
  }
  const double exchange_ms = dist.exchange.total_ms + shuffle_ms;

  // Group-level timeline: one span per device (they run concurrently from
  // the segment origin), then the serialized exchange, then the merge
  // kernels appended by RunKernelBatch below.
  const double max_device_ms =
      std::max_element(partials.begin(), partials.end(),
                       [](const QueryResult& a, const QueryResult& b) {
                         return a.metrics.elapsed_ms < b.metrics.elapsed_ms;
                       })
          ->metrics.elapsed_ms;
  if (exec.trace != nullptr) {
    for (int i = 0; i < group_.size(); ++i) {
      const sim::DeviceSpec& device = group_.devices[static_cast<size_t>(i)];
      const int track = exec.trace->TrackId(
          "device " + std::to_string(i) + " (" + device.name + ")");
      exec.trace->AddSpan(
          track, query.name + " shard " + std::to_string(i), "shard.exec", 0.0,
          MsToCycles(device0, partials[static_cast<size_t>(i)]
                                  .metrics.elapsed_ms),
          {{"elapsed_ms",
            std::to_string(partials[static_cast<size_t>(i)]
                               .metrics.elapsed_ms)}});
    }
    const int link_track = exec.trace->TrackId("exchange (" + link_.spec().name + ")");
    exec.trace->AddSpan(
        link_track, query.name + " exchange", "shard.exchange",
        MsToCycles(device0, max_device_ms),
        MsToCycles(device0, max_device_ms + exchange_ms),
        {{"broadcast_bytes", std::to_string(dist.exchange.total_bytes)},
         {"shuffle_bytes", std::to_string(shuffle_bytes)},
         {"merge", "\"combine\""}});
    exec.trace->AdvanceOrigin(MsToCycles(device0, max_device_ms + exchange_ms));
  }

  // Combine on device 0: fold the per-shard partial-aggregate states per
  // group. Exact and order-independent (superaccumulator digits for sums),
  // so the result is bit-identical to a single device's aggregate output.
  // Then replay the rest of the original plan with the combined table
  // substituted at the aggregate (KbeEngine::ExecuteWithInput — the same
  // kernel code a single device runs, charged on device 0's simulator).
  // Tables above the aggregate are read from the unpartitioned source,
  // which is what device 0 would hold as the coordinator.
  const sim::Simulator& sim0 = engines_.front()->simulator();
  sim::HwCounters merge_counters;
  std::vector<Table> partial_tables;
  partial_tables.reserve(partials.size());
  int64_t rows_in = 0;
  int64_t bytes_in = 0;
  for (QueryResult& partial : partials) {
    rows_in += partial.table.num_rows();
    bytes_in += partial.table.byte_size();
    partial_tables.push_back(std::move(partial.table));
  }
  GPL_ASSIGN_OR_RETURN(
      Table combined,
      CombinePartialAggregates(dist.agg->group_by, dist.agg->aggregates,
                               partial_tables));
  sim::KernelLaunch combine;
  combine.desc =
      AggregateTiming(1.0, static_cast<int>(dist.agg->aggregates.size()));
  combine.desc.name = "k_shard_combine";
  combine.rows_in = rows_in;
  combine.bytes_in = bytes_in;
  combine.rows_out = combined.num_rows();
  combine.bytes_out = combined.byte_size();
  GPL_ASSIGN_OR_RETURN(const sim::SimResult r,
                       sim0.RunKernelBatch(combine, 0, exec.trace, exec.fault));
  merge_counters.Accumulate(r.counters);
  KbeEngine merge_engine(db_, &sim0);
  GPL_ASSIGN_OR_RETURN(
      QueryResult merge_result,
      merge_engine.ExecuteWithInput(dist.plan, dist.agg, std::move(combined),
                                    exec));
  merge_counters.Accumulate(merge_result.metrics.counters);
  const double merge_ms = device0.CyclesToMs(merge_counters.elapsed_cycles);

  // Metrics: counters sum every device's work plus the merge; elapsed is
  // the parallel makespan. The breakdown is rescaled so its parts still sum
  // to the makespan.
  QueryResult result;
  result.table = std::move(merge_result.table);
  QueryMetrics& m = result.metrics;
  for (const QueryResult& partial : partials) {
    m.counters.Accumulate(partial.metrics.counters);
    m.tune_wall_ms += partial.metrics.tune_wall_ms;
    m.tuning_cache_hits += partial.metrics.tuning_cache_hits;
    m.tuning_cache_misses += partial.metrics.tuning_cache_misses;
    m.degraded_segments += partial.metrics.degraded_segments;
    m.fused_segments += partial.metrics.fused_segments;
    m.fused_launches_saved += partial.metrics.fused_launches_saved;
    m.fused_bytes_avoided += partial.metrics.fused_bytes_avoided;
    m.device_elapsed_ms.push_back(partial.metrics.elapsed_ms);
    m.predicted_ms = std::max(m.predicted_ms, partial.metrics.predicted_ms);
  }
  m.counters.Accumulate(merge_counters);
  m.Finalize(device0);
  const double serial_ms = m.elapsed_ms;
  m.elapsed_ms = max_device_ms + exchange_ms + merge_ms;
  if (serial_ms > 0.0) {
    const double scale = m.elapsed_ms / serial_ms;
    m.compute_ms *= scale;
    m.mem_ms *= scale;
    m.dc_ms *= scale;
    m.delay_ms *= scale;
    m.other_ms *= scale;
  }
  if (m.predicted_ms > 0.0) m.predicted_ms += exchange_ms + merge_ms;
  m.plan_wall_ms = plan_wall_ms;
  m.num_shards = group_.size();
  m.partial_combine = true;
  m.broadcast_bytes = dist.exchange.total_bytes;
  m.exchange_all_broadcast_bytes = dist.exchange.all_broadcast_bytes;
  m.shuffle_bytes = shuffle_bytes;
  m.exchange_bytes = dist.exchange.total_bytes + shuffle_bytes;
  m.exchange_ms = exchange_ms;
  m.merge_ms = merge_ms;
  for (double device_ms : m.device_elapsed_ms) {
    m.device_utilization.push_back(
        m.elapsed_ms > 0.0 ? device_ms / m.elapsed_ms : 0.0);
  }
  obs::Inc(broadcast_bytes_counter_,
           static_cast<uint64_t>(dist.exchange.total_bytes));
  obs::Inc(shuffle_bytes_counter_, static_cast<uint64_t>(shuffle_bytes));
  for (size_t i = 0;
       i < slot_busy_gauges_.size() && i < m.device_elapsed_ms.size(); ++i) {
    obs::Add(slot_busy_gauges_[i], m.device_elapsed_ms[i]);
  }
  GPL_SLOG(Info, "shard")
      .Field("query", query.name)
      .Field("group", group_.ToString())
      .Field("merge", "combine")
      .Field("sim_ms", m.elapsed_ms)
      .Field("max_device_ms", max_device_ms)
      .Field("exchange_ms", exchange_ms)
      .Field("merge_ms", merge_ms)
      << "sharded query executed";
  return result;
}

}  // namespace shard
}  // namespace gpl

#include "engine/engine.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "engine/ocelot_engine.h"
#include "plan/segment.h"
#include "shard/device_group.h"
#include "shard/partitioner.h"
#include "shard/sharded_executor.h"

namespace gpl {

/// Sharded-execution state built lazily by ShardedFor(): the partitioned
/// database (owned, unless EngineOptions::sharded_db matches the request)
/// and the executor over it. Rebuilt whenever the sharding shape — shard
/// count, devices, link — changes between calls.
struct Engine::ShardedState {
  std::string signature;
  std::optional<shard::ShardedDatabase> owned_sharded;
  const shard::ShardedDatabase* sharded = nullptr;
  std::unique_ptr<shard::ShardedExecutor> executor;
};

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kKbe:
      return "KBE";
    case EngineMode::kGplNoCe:
      return "GPL (w/o CE)";
    case EngineMode::kGpl:
      return "GPL";
    case EngineMode::kOcelot:
      return "Ocelot";
    case EngineMode::kFused:
      return "Fused";
  }
  return "?";
}

Result<EngineMode> ParseEngineMode(std::string_view name) {
  if (name == "gpl") return EngineMode::kGpl;
  if (name == "kbe") return EngineMode::kKbe;
  if (name == "noce") return EngineMode::kGplNoCe;
  if (name == "ocelot") return EngineMode::kOcelot;
  if (name == "fused") return EngineMode::kFused;
  return Status::InvalidArgument("unknown mode: '" + std::string(name) +
                                 "' (want gpl|kbe|noce|ocelot|fused)");
}

Result<sim::DeviceSpec> ParseDeviceSpec(std::string_view name) {
  if (name == "amd") return sim::DeviceSpec::AmdA10();
  if (name == "nvidia") return sim::DeviceSpec::NvidiaK40();
  return Status::InvalidArgument("unknown device: '" + std::string(name) +
                                 "' (want amd|nvidia)");
}

Result<std::vector<sim::DeviceSpec>> ParseDeviceList(std::string_view csv) {
  std::vector<sim::DeviceSpec> devices;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = csv.find(',', begin);
    const std::string_view token =
        csv.substr(begin, comma == std::string_view::npos ? std::string_view::npos
                                                          : comma - begin);
    if (token.empty()) {
      return Status::InvalidArgument(
          "empty device name in list: '" + std::string(csv) +
          "' (want comma-separated amd|nvidia)");
    }
    GPL_ASSIGN_OR_RETURN(sim::DeviceSpec spec, ParseDeviceSpec(token));
    devices.push_back(std::move(spec));
    if (comma == std::string_view::npos) break;
    begin = comma + 1;
  }
  return devices;
}

Engine::~Engine() = default;

Engine::Engine(const tpch::Database* db, EngineOptions options)
    : db_(db),
      options_(std::move(options)),
      catalog_(Catalog::FromDatabase(*db)),
      simulator_(options_.device, options_.metrics),
      owned_calibration_(options_.calibration != nullptr
                             ? std::optional<model::CalibrationTable>()
                             : model::CalibrationTable::Run(simulator_)),
      calibration_(options_.calibration != nullptr ? options_.calibration
                                                   : &*owned_calibration_),
      owned_tuning_cache_(options_.tuning_cache != nullptr
                              ? nullptr
                              : std::make_unique<model::TuningCache>()),
      tuning_cache_(options_.tuning_cache != nullptr ? options_.tuning_cache
                                                     : owned_tuning_cache_.get()),
      gpl_executor_(db, &simulator_, calibration_, tuning_cache_,
                    options_.subplan_cache),
      kbe_engine_(db, &simulator_, KbeFlavor{}),
      ocelot_engine_(db, &simulator_, OcelotFlavor()) {
  GPL_CHECK(db != nullptr);
}

Result<PhysicalOpPtr> Engine::Plan(const LogicalQuery& query) const {
  PlanOptions plan_options;
  if (options_.partitioned_joins) {
    plan_options.partition_build_threshold_bytes =
        options_.partition_threshold_bytes > 0
            ? options_.partition_threshold_bytes
            : options_.device.cache_bytes / 2;
    plan_options.num_partitions = options_.num_partitions;
  }
  return BuildPhysicalPlan(query, catalog_, plan_options);
}

Result<QueryResult> Engine::Execute(const LogicalQuery& query) {
  return Execute(query, options_.exec);
}

Result<shard::ShardedExecutor*> Engine::ShardedFor(const ExecOptions& exec) {
  if (!IsShardedExec(exec)) {
    return Status::InvalidArgument(
        "ShardedFor requires a sharded ExecOptions (shards > 1 or a "
        "multi-entry device_list)");
  }
  shard::DeviceGroup group = shard::DeviceGroup::ForExec(exec, options_.device);
  const int num_shards = group.size();
  std::string signature = std::to_string(num_shards);
  signature += '|';
  signature += std::to_string(group.link.gbytes_per_sec);
  for (const sim::DeviceSpec& device : group.devices) {
    signature += '|';
    signature += device.name;
  }
  if (sharded_state_ != nullptr && sharded_state_->signature == signature) {
    return sharded_state_->executor.get();
  }

  auto state = std::make_unique<ShardedState>();
  state->signature = std::move(signature);
  if (options_.sharded_db != nullptr &&
      options_.sharded_db->num_shards() == num_shards) {
    state->sharded = options_.sharded_db;
  } else {
    shard::PartitionOptions partition_options;
    partition_options.num_shards = num_shards;
    GPL_ASSIGN_OR_RETURN(shard::ShardedDatabase sharded,
                         shard::PartitionDatabase(*db_, partition_options));
    state->owned_sharded = std::move(sharded);
    state->sharded = &*state->owned_sharded;
  }

  EngineOptions executor_options = options_;
  executor_options.sharded_db = nullptr;  // the executor's engines are leaves
  executor_options.device_calibrations = nullptr;
  executor_options.tuning_cache = tuning_cache_;
  // Shard engines run over per-shard partitions of the database; subplan
  // data cached against the whole database must never leak into them.
  executor_options.subplan_cache = nullptr;
  state->executor = std::make_unique<shard::ShardedExecutor>(
      db_, state->sharded, std::move(group), std::move(executor_options),
      options_.device_calibrations);
  sharded_state_ = std::move(state);
  return sharded_state_->executor.get();
}

Result<QueryResult> Engine::Execute(const LogicalQuery& query,
                                    const ExecOptions& exec) {
  if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
  if (IsShardedExec(exec)) {
    GPL_ASSIGN_OR_RETURN(shard::ShardedExecutor * sharded, ShardedFor(exec));
    return sharded->Execute(query, exec);
  }
  const auto start = std::chrono::steady_clock::now();
  GPL_ASSIGN_OR_RETURN(PhysicalOpPtr plan, Plan(query));
  const double plan_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  GPL_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(plan, exec));
  result.metrics.plan_wall_ms += plan_ms;
  GPL_SLOG(Info, "engine")
      .Field("query", query.name)
      .Field("mode", EngineModeName(options_.mode))
      .Field("sim_ms", result.metrics.elapsed_ms)
      .Field("plan_ms", result.metrics.OptimizeWallMs())
      << "query executed";
  return result;
}

Result<QueryResult> Engine::ExecutePlan(const PhysicalOpPtr& plan) {
  return ExecutePlan(plan, options_.exec);
}

Result<QueryResult> Engine::ExecutePlan(const PhysicalOpPtr& plan,
                                        const ExecOptions& exec) {
  switch (options_.mode) {
    case EngineMode::kKbe:
      return kbe_engine_.Execute(plan, exec);
    case EngineMode::kOcelot:
      return ocelot_engine_.Execute(plan, exec);
    case EngineMode::kGpl:
    case EngineMode::kGplNoCe:
    case EngineMode::kFused: {
      GPL_ASSIGN_OR_RETURN(GplRunResult run, ExecuteGplDetailed(plan, exec));
      QueryResult result;
      result.metrics = FinalizeGplMetrics(run);
      result.table = std::move(run.output);
      return result;
    }
  }
  return Status::Internal("unknown engine mode");
}

QueryMetrics Engine::FinalizeGplMetrics(const GplRunResult& run) const {
  QueryMetrics metrics;
  metrics.counters = run.counters;
  metrics.Finalize(simulator_.device());
  metrics.tune_wall_ms = run.tuner_wall_ms;
  metrics.tuning_cache_hits = run.tuning_cache_hits;
  metrics.tuning_cache_misses = run.tuning_cache_misses;
  // Summed in segment order: floating-point addition is order-sensitive,
  // and predicted_ms must be deterministic for a plan.
  double predicted_cycles = 0.0;
  for (const SegmentReport& seg : run.segments) {
    predicted_cycles += seg.predicted_cycles;
    if (seg.degraded) ++metrics.degraded_segments;
    if (seg.subplan_cache == SubplanOutcome::kHit) ++metrics.subplan_cache_hits;
    if (seg.subplan_cache == SubplanOutcome::kMiss) {
      ++metrics.subplan_cache_misses;
    }
    if (seg.engine == model::SegmentEngine::kFused) {
      ++metrics.fused_segments;
      metrics.fused_launches_saved += seg.launches_saved;
      metrics.fused_bytes_avoided += seg.fused_bytes_avoided;
    }
  }
  metrics.predicted_ms = simulator_.device().CyclesToMs(predicted_cycles);
  return metrics;
}

Result<GplRunResult> Engine::ExecuteGplDetailed(const PhysicalOpPtr& plan) {
  return ExecuteGplDetailed(plan, options_.exec);
}

Result<GplRunResult> Engine::ExecuteGplDetailed(const PhysicalOpPtr& plan,
                                                const ExecOptions& exec) {
  GPL_ASSIGN_OR_RETURN(SegmentedPlan segmented, SegmentPlan(plan));
  return gpl_executor_.Run(segmented, options_.mode, exec);
}

}  // namespace gpl

#include "core/gpl_executor.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "exec/primitives.h"
#include "plan/fusion.h"

namespace gpl {

namespace {
// Estimated bytes per hash-table entry when the table has not been built yet
// (buckets + key/row/next arrays).
constexpr double kHashEntryBytes = 32.0;

/// The type-erased payload of a cached segment: everything a warm run needs
/// to replay the segment without executing it. `observations` and
/// `stage_timings` feed the timing simulation (which re-runs on every hit, so
/// simulated observables stay bit-identical to the cold run); `output`/`hash`
/// carry the functional result.
struct CachedSegment {
  std::shared_ptr<const Table> output;
  std::shared_ptr<const HashJoinState> hash;  ///< build segments only
  FunctionalRun observations;  ///< per-original-stage actuals (no output)
  /// Post-execution timing descriptors, one per original stage. Most kernels'
  /// descriptors are state-free, but the hash build's reflects the built
  /// table — a hit must simulate with the cold run's exact descriptors.
  std::vector<sim::KernelTimingDesc> stage_timings;
  int64_t bytes = 0;  ///< retention charge (hash state or output table)
};

/// Aborts an owned subplan-cache compute on unwind unless disarmed: error
/// paths between Acquire and Publish must wake the waiters to retry.
class ComputeTicket {
 public:
  ComputeTicket() = default;
  ~ComputeTicket() {
    if (cache_ != nullptr) cache_->Abort(key_);
  }
  ComputeTicket(const ComputeTicket&) = delete;
  ComputeTicket& operator=(const ComputeTicket&) = delete;

  void Arm(pool::SubplanCache* cache, std::string key) {
    cache_ = cache;
    key_ = std::move(key);
  }
  void Disarm() { cache_ = nullptr; }

 private:
  pool::SubplanCache* cache_ = nullptr;
  std::string key_;
};
}  // namespace

const char* SubplanOutcomeName(SubplanOutcome outcome) {
  switch (outcome) {
    case SubplanOutcome::kBypass:
      return "off";
    case SubplanOutcome::kMiss:
      return "miss";
    case SubplanOutcome::kHit:
      return "hit";
  }
  return "unknown";
}

GplExecutor::GplExecutor(const tpch::Database* db,
                         const sim::Simulator* simulator,
                         const model::CalibrationTable* calibration,
                         model::TuningCache* tuning_cache,
                         pool::SubplanCache* subplan_cache)
    : db_(db),
      simulator_(simulator),
      calibration_(calibration),
      tuning_cache_(tuning_cache),
      subplan_cache_(subplan_cache),
      cost_model_(simulator->device(), calibration) {
  GPL_CHECK(db_ != nullptr && simulator_ != nullptr && calibration_ != nullptr);
  // The database identity every cache key embeds: the instance plus its
  // table cardinalities (a regenerated database at another scale factor must
  // never collide, even if the allocator reuses the address).
  char ptr_buf[32];
  std::snprintf(ptr_buf, sizeof(ptr_buf), "%p", static_cast<const void*>(db_));
  db_tag_ = ptr_buf;
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const Table* table = db_->ByName(name);
    db_tag_ += ':';
    db_tag_ += std::to_string(table == nullptr ? -1 : table->num_rows());
  }
}

Result<std::shared_ptr<const Table>> GplExecutor::ResolveInput(
    const Segment& segment,
    const std::vector<std::shared_ptr<const Table>>& prior_outputs) const {
  if (!segment.input_table.empty()) {
    const Table* base = db_->ByName(segment.input_table);
    if (base == nullptr) {
      return Status::NotFound("unknown table: " + segment.input_table);
    }
    auto view = std::make_shared<Table>(segment.input_table);
    for (const std::string& col : segment.input_columns) {
      const std::string name = segment.input_alias.empty()
                                   ? col
                                   : segment.input_alias + "_" + col;
      GPL_RETURN_NOT_OK(view->AddColumn(name, base->GetColumn(col)));
    }
    return std::shared_ptr<const Table>(std::move(view));
  }
  if (segment.input_segment >= 0 &&
      segment.input_segment < static_cast<int>(prior_outputs.size())) {
    const auto& prior =
        prior_outputs[static_cast<size_t>(segment.input_segment)];
    if (prior != nullptr) return prior;
  }
  return Status::InvalidArgument("segment has no input source");
}

model::SegmentDesc GplExecutor::DescribeSegment(const Segment& segment,
                                                int64_t input_rows,
                                                int64_t input_bytes) const {
  model::SegmentDesc desc;
  desc.input_bytes = static_cast<double>(input_bytes);
  double rows = static_cast<double>(input_rows);
  double bytes = static_cast<double>(input_bytes);
  for (const Stage& stage : segment.stages) {
    stage.kernel->PrepareTiming();
    model::StageDesc sd;
    sd.timing = stage.kernel->timing();
    sd.rows_in = rows;
    sd.bytes_in = bytes;
    sd.rows_out = stage.est_rows_out;
    sd.bytes_out = stage.est_bytes_out();
    // A not-yet-built hash table's working set is estimated from the rows
    // that will be inserted.
    if ((sd.timing.name == "k_hash_build" ||
         sd.timing.name == "k_partition_build") &&
        sd.timing.random_working_set_bytes == 0) {
      sd.timing.random_working_set_bytes =
          static_cast<int64_t>(rows * kHashEntryBytes);
      sd.timing.random_access_fraction =
          sd.timing.random_access_fraction > 0 ? sd.timing.random_access_fraction
                                               : 0.7;
      sd.bytes_out = static_cast<double>(sd.timing.random_working_set_bytes);
    }
    desc.extra_resident_bytes += sd.timing.random_working_set_bytes;
    desc.stages.push_back(sd);
    rows = std::max(sd.rows_out, 0.0);
    bytes = std::max(sd.bytes_out, 0.0);
  }
  return desc;
}

/// One segment's state across the steps of GplExecutor::Run. `report` is the
/// segment's outcome; each step fills in its part.
struct GplExecutor::SegmentRun {
  explicit SegmentRun(const Segment& s)
      : segment(s), start(std::chrono::steady_clock::now()) {}

  const Segment& segment;
  const std::chrono::steady_clock::time_point start;
  std::shared_ptr<const Table> input;
  model::SegmentDesc desc;
  /// PlanFusion's group sizes (fused mode only; empty otherwise).
  std::vector<int> fusion_groups;
  std::string tuning_signature;
  std::string subplan_key;
  std::shared_ptr<const CachedSegment> cached;  ///< set on a subplan hit
  ComputeTicket ticket;                         ///< armed on a subplan miss
  double tune_ms = 0.0;
  /// The kernel groups the segment runs as, in stage order: the chosen
  /// fusion grouping for a fused segment, all of size 1 otherwise.
  std::vector<int> groups;
  Table output;  ///< the functional result (cold runs)
  SegmentReport report;
};

bool GplExecutor::TuningCacheEnabled(const ExecOptions& exec) const {
  return tuning_cache_ != nullptr && exec.use_tuning_cache;
}

Result<GplRunResult> GplExecutor::Run(const SegmentedPlan& plan,
                                      EngineMode mode,
                                      const ExecOptions& exec) const {
  if (mode != EngineMode::kGpl && mode != EngineMode::kGplNoCe &&
      mode != EngineMode::kFused) {
    return Status::InvalidArgument(
        "GplExecutor runs the GPL modes (gpl, noce, fused) only");
  }
  GplRunResult result;

  // Host parallelism for the functional kernel bodies and the tuner grid,
  // scoped to this run. Purely host-side: the simulated timing is computed
  // from descriptors and observed cardinalities, never from how fast (or how
  // parallel) the host produced them.
  ScopedHostParallelism host_parallelism(exec.host_threads);

  // Fresh functional state for every run.
  for (const Segment& segment : plan.segments) {
    for (const Stage& stage : segment.stages) stage.kernel->Reset();
  }

  // Data memoization is bypassed entirely under fault injection: an injected
  // fault must hit the same launch/reservation sites as isolated execution,
  // and a cache hit would skip some of them.
  pool::SubplanCache* cache = exec.fault == nullptr ? subplan_cache_ : nullptr;
  // A segment counts as a tuning-cache hit or miss only when the cost model
  // consults the cache.
  const bool tuning_cached = exec.use_cost_model && TuningCacheEnabled(exec);

  std::vector<std::shared_ptr<const Table>> outputs(plan.segments.size());
  for (size_t i = 0; i < plan.segments.size(); ++i) {
    // Cancellation/deadline check at the segment boundary: a cancelled run
    // unwinds here instead of simulating the remaining segments.
    if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
    SegmentRun run(plan.segments[i]);
    GPL_ASSIGN_OR_RETURN(run.input, ResolveInput(run.segment, outputs));
    DescribeAndScope(run, mode, exec, cache);
    LookupSubplan(run, exec, cache);
    ChooseParameters(run, mode, exec);
    // On failure the ticket aborts the subplan compute as `run` unwinds.
    GPL_RETURN_NOT_OK(RunFunctional(run));
    GPL_RETURN_NOT_OK(Simulate(run, i, exec));
    outputs[i] = PublishOutput(run, cache);

    SegmentReport& report = run.report;
    report.host_wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - run.start)
                              .count();
    result.counters.Accumulate(report.counters);
    result.tuner_wall_ms += run.tune_ms;
    if (tuning_cached) {
      ++(report.tuning_cache_hit ? result.tuning_cache_hits
                                 : result.tuning_cache_misses);
    }
    result.segments.push_back(std::move(report));
  }

  if (!outputs.empty() && outputs.back() != nullptr) {
    result.output = *outputs.back();
  }
  return result;
}

void GplExecutor::DescribeAndScope(SegmentRun& run, EngineMode mode,
                                   const ExecOptions& exec,
                                   const pool::SubplanCache* cache) const {
  run.desc = DescribeSegment(run.segment, run.input->num_rows(),
                             run.input->byte_size());

  // The engine scope keys cached choices to the mode (and, for the fused
  // mode, the fusion grouping, which is deterministic from the segment's
  // stages) they were tuned for: modes search different spaces, so a hit
  // must never cross modes.
  std::string engine_scope = mode == EngineMode::kGplNoCe ? "noce" : "gpl";
  if (mode == EngineMode::kFused) {
    engine_scope = "fused:";
    run.fusion_groups = PlanFusion(run.segment);
    for (size_t g = 0; g < run.fusion_groups.size(); ++g) {
      if (g > 0) engine_scope += ',';
      engine_scope += std::to_string(run.fusion_groups[g]);
    }
  }

  // The tuning signature pins device, per-stage descriptors/estimates,
  // overrides, and engine scope. The subplan key embeds it (plus the
  // functional chain signature and database tag), so a subplan hit provably
  // replays under the same tuned parameters as its cold run.
  if ((exec.use_cost_model && TuningCacheEnabled(exec)) || cache != nullptr) {
    run.tuning_signature = model::TuningCache::SegmentSignature(
        simulator_->device(), run.desc, exec.overrides, engine_scope);
  }
}

void GplExecutor::LookupSubplan(SegmentRun& run, const ExecOptions& exec,
                                pool::SubplanCache* cache) const {
  if (cache == nullptr || run.segment.uncacheable ||
      run.segment.chain_signature.empty()) {
    return;  // report.subplan_cache stays kBypass
  }
  run.subplan_key = "seg|" + db_tag_ + "|" +
                    (exec.use_cost_model ? "cm|" : "def|") +
                    run.segment.chain_signature + "|" + run.tuning_signature;
  pool::SubplanCache::Acquisition acq = cache->Acquire(run.subplan_key);
  if (acq.hit) {
    run.cached = std::static_pointer_cast<const CachedSegment>(acq.payload);
    run.report.subplan_cache = SubplanOutcome::kHit;
  } else {
    run.ticket.Arm(cache, run.subplan_key);
    run.report.subplan_cache = SubplanOutcome::kMiss;
  }
}

void GplExecutor::ChooseParameters(SegmentRun& run, EngineMode mode,
                                   const ExecOptions& exec) const {
  // The <5 ms query-optimization step.
  const auto tune_start = std::chrono::steady_clock::now();
  const model::TuningOverrides& overrides = exec.overrides;
  model::TuningChoice& choice = run.report.tuning;
  if (exec.use_cost_model) {
    if (TuningCacheEnabled(exec)) {
      if (auto tuned = tuning_cache_->Lookup(run.tuning_signature)) {
        choice = std::move(*tuned);
        run.report.tuning_cache_hit = true;
      }
    }
    if (!run.report.tuning_cache_hit) {
      choice = mode == EngineMode::kFused
                   ? model::TuneSegmentEngines(cost_model_, run.desc,
                                               *calibration_,
                                               run.fusion_groups, overrides)
                   : model::TuneSegment(cost_model_, run.desc, *calibration_,
                                        overrides);
      if (TuningCacheEnabled(exec)) {
        tuning_cache_->Insert(run.tuning_signature, choice);
      }
    }
  } else {
    choice.params.tile_bytes =
        overrides.tile_bytes > 0 ? overrides.tile_bytes
                                 : MiB(1);  // the paper's default Δ
    const int wg = overrides.workgroups_per_kernel > 0
                       ? overrides.workgroups_per_kernel
                       : 2 * simulator_->device().num_cus;
    bool default_fused = false;
    for (int size : run.fusion_groups) default_fused |= size > 1;
    if (default_fused) {
      // Without the cost model the fused mode fuses every legal chain.
      choice.engine = model::SegmentEngine::kFused;
      choice.fused_group_sizes = run.fusion_groups;
      choice.params.workgroups.assign(run.fusion_groups.size(), wg);
      choice.estimate = cost_model_.EstimateSegmentSequential(
          model::ComposeFusedSegment(run.desc, run.fusion_groups),
          choice.params);
    } else {
      choice.params.workgroups.assign(run.segment.stages.size(), wg);
      for (size_t g = 0; g + 1 < run.segment.stages.size(); ++g) {
        choice.params.channels.push_back(
            overrides.has_channel ? overrides.channel : sim::ChannelConfig{});
      }
      choice.estimate = cost_model_.EstimateSegment(run.desc, choice.params);
    }
  }
  run.tune_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - tune_start)
                    .count();
  run.report.predicted_cycles = choice.estimate.total_cycles;

  // The w/o-CE ablation runs every segment kernel-at-a-time; the other modes
  // run the tuner's engine.
  run.report.engine = mode == EngineMode::kGplNoCe
                          ? model::SegmentEngine::kKernelAtATime
                          : choice.engine;
  if (run.report.engine == model::SegmentEngine::kFused) {
    run.groups = choice.fused_group_sizes;
  } else {
    run.groups.assign(run.segment.stages.size(), 1);
  }
}

Status GplExecutor::RunFunctional(SegmentRun& run) const {
  FunctionalRun& observations = run.report.observations;
  if (run.cached != nullptr) {
    // A subplan hit skips the functional pass: the cached entry carries the
    // cold run's per-stage observations, which the simulation replays.
    observations = run.cached->observations;
    return Status::OK();
  }

  // Fused or not, the host runs the segment's stages as they are: a fused
  // group is one composed launch in the simulator only (BuildLaunches).
  GPL_ASSIGN_OR_RETURN(FunctionalRun func,
                       RunSegmentFunctional(run.segment, *run.input,
                                            run.report.tuning.params.tile_bytes));
  run.output = std::exchange(func.output, Table());
  observations = std::move(func);
  return Status::OK();
}

sim::PipelineSpec GplExecutor::BuildLaunches(SegmentRun& run) const {
  SegmentReport& report = run.report;
  const model::TuningChoice& choice = report.tuning;
  const std::vector<StageObservation>& observed = report.observations.stages;
  // Post-execution per-stage timing descriptors: live kernels on a cold run,
  // the cold run's recorded descriptors on a hit (the hash build's
  // descriptor reflects the built table, which a hit never rebuilds).
  const auto stage_timing = [&](size_t s) -> sim::KernelTimingDesc {
    return run.cached != nullptr ? run.cached->stage_timings[s]
                                 : run.segment.stages[s].kernel->timing();
  };

  // One launch per kernel group. A group of size 1 keeps its stage's
  // descriptor. A larger group gets the composed descriptor built from the
  // *observed* per-stage cardinalities; its interior hand-offs stay in
  // registers, neither materialized nor channeled.
  sim::PipelineSpec spec;
  spec.tile_bytes = choice.params.tile_bytes;
  spec.extra_resident_bytes = run.desc.extra_resident_bytes;
  size_t next = 0;
  for (size_t g = 0; g < run.groups.size(); ++g) {
    const size_t size = static_cast<size_t>(run.groups[g]);
    const size_t last = next + size - 1;
    sim::KernelLaunch launch;
    if (size == 1) {
      launch.desc = stage_timing(next);
    } else {
      std::vector<model::StageDesc> stages;
      stages.reserve(size);
      for (size_t s = next; s <= last; ++s) {
        model::StageDesc sd;
        sd.timing = run.desc.stages[s].timing;
        sd.rows_in = static_cast<double>(observed[s].rows_in);
        sd.bytes_in = static_cast<double>(observed[s].bytes_in);
        sd.rows_out = static_cast<double>(observed[s].rows_out);
        sd.bytes_out = static_cast<double>(observed[s].bytes_out);
        stages.push_back(std::move(sd));
      }
      launch.desc = model::ComposeFusedStage(stages, 0, size).timing;
      ++report.fused_groups;
      report.launches_saved += static_cast<int>(size) - 1;
      for (size_t s = next; s < last; ++s) {
        report.fused_bytes_avoided += observed[s].bytes_out;
      }
    }
    launch.rows_in = observed[next].rows_in;
    launch.bytes_in = observed[next].bytes_in;
    launch.rows_out = observed[last].rows_out;
    launch.bytes_out = observed[last].bytes_out;
    launch.workgroups_per_tile =
        g < choice.params.workgroups.size() ? choice.params.workgroups[g] : 0;
    // Channels between groups matter to the pipeline only: the sequential
    // paths materialize every boundary and ignore the channel configs.
    launch.input = g == 0 ? sim::Endpoint::kGlobal : sim::Endpoint::kChannel;
    launch.output = g + 1 == run.groups.size() ? sim::Endpoint::kGlobal
                                                : sim::Endpoint::kChannel;
    if (!report.description.empty()) report.description += " -> ";
    report.description += launch.desc.name;
    spec.kernels.push_back(std::move(launch));
    next += size;
  }
  spec.channel_configs = choice.params.channels;
  while (spec.channel_configs.size() + 1 < spec.kernels.size()) {
    spec.channel_configs.push_back(sim::ChannelConfig{});
  }
  return spec;
}

Status GplExecutor::Simulate(SegmentRun& run, size_t index,
                             const ExecOptions& exec) const {
  SegmentReport& report = run.report;
  sim::PipelineSpec spec = BuildLaunches(run);
  for (const Stage& stage : run.segment.stages) {
    report.stage_names.push_back(stage.kernel->name());
  }
  spec.trace = exec.trace;
  spec.fault = exec.fault;
  spec.label = "segment " + std::to_string(index) + ": " + report.description;
  GPL_SLOG(Debug, "core")
      .Field("segment", spec.label)
      .Field("tile_bytes", spec.tile_bytes)
      .Field("kernels", spec.kernels.size())
      .Field("engine", model::SegmentEngineName(report.engine))
      << "running segment";

  // The one dispatch rule: a pipelined segment runs with channels; every
  // other engine (kernel-at-a-time, fused groups) runs the sequential tiling
  // over the spec's launches.
  Result<sim::HwCounters> counters =
      report.engine == model::SegmentEngine::kGplChannel
          ? simulator_->RunPipeline(spec)
          : simulator_->RunSequentialTiles(spec);
  if (!counters.ok() &&
      counters.status().code() == StatusCode::kChannelAllocFailed) {
    // Graceful degradation: the pipelined segment (only RunPipeline
    // allocates channels) could not get its channels, so re-execute it
    // kernel-at-a-time (the w/o-CE path needs none). The functional output
    // is already computed and unaffected; only the simulated timing of this
    // segment degrades.
    GPL_SLOG(Warning, "core").Field("segment", spec.label)
        << "degrading to kernel-at-a-time: " << counters.status().ToString();
    counters = simulator_->RunSequentialTiles(spec);
    if (counters.ok()) {
      report.degraded = true;
      report.engine = model::SegmentEngine::kKernelAtATime;
    }
  }
  GPL_RETURN_NOT_OK(counters.status());
  report.counters = counters.take();
  report.measured_cycles = report.counters.elapsed_cycles;
  return Status::OK();
}

std::shared_ptr<const Table> GplExecutor::PublishOutput(
    SegmentRun& run, pool::SubplanCache* cache) const {
  const Segment& segment = run.segment;
  const bool hash_build =
      segment.output_is_hash_build && segment.hash_state != nullptr;
  if (run.cached != nullptr) {
    // Downstream probe kernels read the cached snapshot through
    // HashJoinState::probe_table()/probe_rows().
    if (hash_build) segment.hash_state->shared = run.cached->hash;
    return run.cached->output;
  }
  auto output = std::make_shared<const Table>(std::move(run.output));
  if (run.report.subplan_cache != SubplanOutcome::kMiss) return output;

  auto entry = std::make_shared<CachedSegment>();
  entry->observations = run.report.observations;
  entry->stage_timings.reserve(segment.stages.size());
  for (const Stage& stage : segment.stages) {
    entry->stage_timings.push_back(stage.kernel->timing());
  }
  entry->output = output;
  if (hash_build) {
    // Move the built state into an immutable snapshot and leave the live
    // state reading through it, exactly as a future hit would.
    auto snap = std::make_shared<HashJoinState>();
    snap->table = std::move(segment.hash_state->table);
    snap->build_rows = std::move(segment.hash_state->build_rows);
    snap->build_rows_initialized = segment.hash_state->build_rows_initialized;
    segment.hash_state->table = JoinHashTable();
    segment.hash_state->build_rows = Table();
    segment.hash_state->build_rows_initialized = false;
    segment.hash_state->shared = snap;
    entry->hash = snap;
    entry->bytes = snap->table.byte_size() + snap->build_rows.byte_size();
  } else {
    entry->bytes = output->byte_size();
  }
  const double cost_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - run.start)
                             .count();
  cache->Publish(run.subplan_key, entry, entry->bytes, cost_ms);
  run.ticket.Disarm();
  return output;
}

}  // namespace gpl

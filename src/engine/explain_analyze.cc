#include "engine/explain_analyze.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "engine/metrics_json.h"
#include "plan/physical_plan.h"
#include "shard/device_group.h"
#include "shard/sharded_executor.h"
#include "trace/json.h"

namespace gpl {

namespace {

std::string Format(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string FormatMs(double ms) { return Format("%.3f", ms); }
std::string FormatCycles(double cycles) { return Format("%.0f", cycles); }
std::string FormatPct(double pct) { return Format("%+.1f%%", pct); }

/// Bytes an exchange actually moved: broadcast/repartition traffic is charged
/// exactly as priced; the final gather ships whatever the shards really
/// produced, which Execute() recorded as shuffle_bytes.
int64_t ActualBytes(const shard::ExchangeOpReport& ex,
                    const QueryMetrics& metrics) {
  return ex.kind == ExchangeKind::kGather ? metrics.shuffle_bytes
                                          : ex.predicted_bytes;
}

/// Signed prediction error, (predicted - actual) / actual * 100; 0 when the
/// actual is not positive.
double CycleErrorPct(double predicted, double actual) {
  if (actual <= 0.0) return 0.0;
  return (predicted - actual) / actual * 100.0;
}

}  // namespace

std::string ExplainAnalyzeReport::ToString() const {
  std::ostringstream out;
  out << "EXPLAIN ANALYZE query=" << query << " mode=" << mode
      << " device=" << device << "\n";
  out << "plan:\n" << plan_text;
  if (distributed.num_shards > 1) {
    out << "exchanges: shards=" << distributed.num_shards
        << " merge=" << shard::MergeLabel(distributed.fallback_reason) << "\n";
    for (const shard::ExchangeOpReport& ex : distributed.exchanges) {
      out << "  " << ExchangeKindName(ex.kind) << " " << ex.table
          << ": predicted_bytes=" << ex.predicted_bytes
          << " actual_bytes=" << ActualBytes(ex, metrics) << " ("
          << FormatMs(ex.predicted_ms) << " ms predicted)\n";
    }
    out << "totals: elapsed=" << FormatMs(metrics.elapsed_ms)
        << " ms exchange=" << FormatMs(metrics.exchange_ms)
        << " ms merge=" << FormatMs(metrics.merge_ms)
        << " ms output_rows=" << output_rows << "\n";
    return out.str();
  }
  out << "segments:\n";
  double actual_total = 0.0;
  double predicted_total = 0.0;
  double host_total = 0.0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentReport& seg = segments[i];
    const model::SegmentParams& params = seg.tuning.params;
    out << "  segment " << i << ": " << seg.description << "  ["
        << (seg.degraded ? "degraded" : model::SegmentEngineName(seg.engine))
        << "] [cache " << (seg.tuning_cache_hit ? "hit" : "miss") << "]\n";
    out << "    tile_bytes=" << params.tile_bytes
        << " tiles=" << seg.observations.num_tiles << " workgroups=";
    for (size_t w = 0; w < params.workgroups.size(); ++w) {
      if (w > 0) out << ",";
      out << params.workgroups[w];
    }
    out << "\n";
    out << "    cycles: actual=" << FormatCycles(seg.measured_cycles)
        << " predicted=" << FormatCycles(seg.predicted_cycles) << " error="
        << FormatPct(CycleErrorPct(seg.predicted_cycles, seg.measured_cycles))
        << "  (" << FormatMs(device_spec.CyclesToMs(seg.measured_cycles))
        << " ms simulated)\n";
    out << "    host_wall_ms=" << FormatMs(seg.host_wall_ms)
        << " channel_bytes=" << seg.counters.bytes_via_channel
        << " materialized_bytes=" << seg.counters.bytes_materialized
        << "\n";
    out << "    cache: " << SubplanOutcomeName(seg.subplan_cache) << "\n";
    if (seg.fused_groups > 0) {
      out << "    fusion: groups=" << seg.fused_groups
          << " launches_saved=" << seg.launches_saved
          << " bytes_avoided=" << seg.fused_bytes_avoided << "\n";
    }
    for (size_t s = 0; s < seg.observations.stages.size(); ++s) {
      const StageObservation& stage = seg.observations.stages[s];
      out << "      " << seg.stage_names[s] << ": rows " << stage.rows_in
          << " -> " << stage.rows_out << "  bytes " << stage.bytes_in
          << " -> " << stage.bytes_out << "\n";
    }
    actual_total += seg.measured_cycles;
    predicted_total += seg.predicted_cycles;
    host_total += seg.host_wall_ms;
  }
  out << "totals: segments=" << segments.size()
      << " actual_cycles=" << FormatCycles(actual_total) << " ("
      << FormatMs(metrics.elapsed_ms)
      << " ms) predicted_cycles=" << FormatCycles(predicted_total) << " ("
      << FormatMs(metrics.predicted_ms) << " ms) error="
      << FormatPct(CycleErrorPct(predicted_total, actual_total)) << "\n";
  out << "  tuning_cache: hits=" << metrics.tuning_cache_hits
      << " misses=" << metrics.tuning_cache_misses
      << "  degraded_segments=" << metrics.degraded_segments
      << "  output_rows=" << output_rows << "\n";
  out << "  subplan_cache: hits=" << metrics.subplan_cache_hits
      << " misses=" << metrics.subplan_cache_misses << "\n";
  if (metrics.fused_segments > 0) {
    out << "  fusion: segments=" << metrics.fused_segments
        << " launches_saved=" << metrics.fused_launches_saved
        << " bytes_avoided=" << metrics.fused_bytes_avoided << "\n";
  }
  out << "  host wall: plan=" << FormatMs(metrics.plan_wall_ms)
      << " ms tune=" << FormatMs(metrics.tune_wall_ms)
      << " ms segments=" << FormatMs(host_total) << " ms\n";
  return out.str();
}

std::string ExplainAnalyzeReport::ToJson() const {
  std::string out;
  trace::JsonObjectWriter json(&out);
  json.Field("query", query)
      .Field("mode", mode)
      .Field("device", device)
      .Field("output_rows", output_rows);
  if (distributed.num_shards > 1) {
    // Sharded-run block, omitted for single-device runs so their JSON stays
    // byte-stable across this change.
    json.Field("num_shards", distributed.num_shards)
        .Field("partial_combine", metrics.partial_combine)
        .Field("fallback_reason", distributed.fallback_reason);
    json.Key("exchanges");
    out += "[";
    for (size_t i = 0; i < distributed.exchanges.size(); ++i) {
      const shard::ExchangeOpReport& ex = distributed.exchanges[i];
      if (i > 0) out += ",";
      trace::JsonObjectWriter(&out)
          .Field("table", ex.table)
          .Field("kind", ExchangeKindName(ex.kind))
          .Field("predicted_bytes", ex.predicted_bytes)
          .Field("actual_bytes", ActualBytes(ex, metrics))
          .Field("predicted_ms", ex.predicted_ms)
          .Close();
    }
    out += "]";
  }
  json.Key("segments");
  out += "[";
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentReport& seg = segments[i];
    if (i > 0) out += ",";
    trace::JsonObjectWriter segment(&out);
    segment.Field("index", i)
        .Field("description", seg.description)
        .Field("num_tiles", seg.observations.num_tiles)
        .Field("tile_bytes", seg.tuning.params.tile_bytes);
    segment.Key("workgroups");
    out += "[";
    for (size_t w = 0; w < seg.tuning.params.workgroups.size(); ++w) {
      if (w > 0) out += ",";
      out += std::to_string(seg.tuning.params.workgroups[w]);
    }
    out += "]";
    segment.Field("actual_cycles", seg.measured_cycles)
        .Field("predicted_cycles", seg.predicted_cycles)
        .Field("actual_ms", device_spec.CyclesToMs(seg.measured_cycles))
        .Field("predicted_ms", device_spec.CyclesToMs(seg.predicted_cycles))
        .Field("cycle_error_pct",
               CycleErrorPct(seg.predicted_cycles, seg.measured_cycles))
        .Field("host_wall_ms", seg.host_wall_ms)
        .Field("channel_bytes", seg.counters.bytes_via_channel)
        .Field("materialized_bytes", seg.counters.bytes_materialized)
        .Field("tuning_cache_hit", seg.tuning_cache_hit)
        .Field("degraded", seg.degraded)
        .Field("subplan_cache", SubplanOutcomeName(seg.subplan_cache))
        .Field("engine", model::SegmentEngineName(seg.engine))
        .Field("fused_groups", seg.fused_groups)
        .Field("launches_saved", seg.launches_saved)
        .Field("fused_bytes_avoided", seg.fused_bytes_avoided);
    segment.Key("stages");
    out += "[";
    for (size_t s = 0; s < seg.observations.stages.size(); ++s) {
      const StageObservation& stage = seg.observations.stages[s];
      if (s > 0) out += ",";
      trace::JsonObjectWriter(&out)
          .Field("kernel", seg.stage_names[s])
          .Field("rows_in", stage.rows_in)
          .Field("bytes_in", stage.bytes_in)
          .Field("rows_out", stage.rows_out)
          .Field("bytes_out", stage.bytes_out)
          .Close();
    }
    out += "]";
    segment.Close();
  }
  out += "]";
  MetricsJsonEntry entry;
  entry.query = query;
  entry.mode = mode;
  entry.device = device;
  entry.metrics = metrics;
  json.Key("metrics");
  out += QueryMetricsToJson(entry);
  json.Close();
  return out;
}

Result<ExplainAnalyzeReport> ExplainAnalyze(Engine& engine,
                                            const LogicalQuery& query) {
  return ExplainAnalyze(engine, query, engine.options().exec);
}

Result<ExplainAnalyzeReport> ExplainAnalyze(Engine& engine,
                                            const LogicalQuery& query,
                                            const ExecOptions& exec) {
  const EngineMode mode = engine.options().mode;
  if (Engine::IsShardedExec(exec)) {
    GPL_ASSIGN_OR_RETURN(shard::ShardedExecutor * sharded,
                         engine.ShardedFor(exec));
    shard::DistributedExplain dist;
    GPL_ASSIGN_OR_RETURN(QueryResult result,
                         sharded->Execute(query, exec, &dist));

    ExplainAnalyzeReport report;
    report.query = query.name;
    report.mode = EngineModeName(mode);
    report.device = sharded->group().ToString();
    report.plan_text = std::move(dist.plan_text);
    report.metrics = result.metrics;
    report.output_rows = result.table.num_rows();
    report.distributed = std::move(dist);
    return report;
  }
  if (mode != EngineMode::kGpl && mode != EngineMode::kGplNoCe &&
      mode != EngineMode::kFused) {
    return Status::Unimplemented(
        "EXPLAIN ANALYZE annotates segmented GPL plans; mode " +
        std::string(EngineModeName(mode)) + " has none");
  }

  const auto plan_start = std::chrono::steady_clock::now();
  GPL_ASSIGN_OR_RETURN(PhysicalOpPtr plan, engine.Plan(query));
  const double plan_wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - plan_start)
                                  .count();

  GPL_ASSIGN_OR_RETURN(GplRunResult run, engine.ExecuteGplDetailed(plan, exec));

  ExplainAnalyzeReport report;
  report.query = query.name;
  report.mode = EngineModeName(mode);
  report.device = engine.options().device.name;
  report.plan_text = PlanToString(*plan, /*indent=*/1);
  report.metrics = engine.FinalizeGplMetrics(run);
  report.metrics.plan_wall_ms = plan_wall_ms;
  report.output_rows = run.output.num_rows();
  report.segments = std::move(run.segments);
  report.device_spec = engine.options().device;
  return report;
}

}  // namespace gpl

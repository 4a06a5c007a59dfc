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

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string FormatCycles(double cycles) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", cycles);
  return buf;
}

std::string FormatPct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
  return buf;
}

void AppendJsonField(std::string* out, const char* key,
                     const std::string& value, bool quote) {
  if (out->back() != '{') *out += ",";
  *out += "\"";
  *out += key;
  *out += "\":";
  if (quote) {
    *out += "\"" + trace::JsonEscape(value) + "\"";
  } else {
    *out += value;
  }
}

void AppendJsonNumber(std::string* out, const char* key, double value) {
  AppendJsonField(out, key, trace::JsonNumber(value), /*quote=*/false);
}

void AppendJsonInt(std::string* out, const char* key, int64_t value) {
  AppendJsonField(out, key, std::to_string(value), /*quote=*/false);
}

void AppendJsonBool(std::string* out, const char* key, bool value) {
  AppendJsonField(out, key, value ? "true" : "false", /*quote=*/false);
}

}  // namespace

double ExplainAnalyzeSegment::CycleErrorPct() const {
  if (actual_cycles <= 0.0) return 0.0;
  return (predicted_cycles - actual_cycles) / actual_cycles * 100.0;
}

std::string ExplainAnalyzeReport::ToString() const {
  std::ostringstream out;
  out << "EXPLAIN ANALYZE query=" << query << " mode=" << mode
      << " device=" << device << "\n";
  out << "plan:\n" << plan_text;
  if (num_shards > 1) {
    out << "exchanges: shards=" << num_shards
        << " merge=" << shard::MergeLabel(fallback_reason) << "\n";
    for (const ExplainAnalyzeExchange& ex : exchanges) {
      out << "  " << ex.kind << " " << ex.table
          << ": predicted_bytes=" << ex.predicted_bytes
          << " actual_bytes=" << ex.actual_bytes << " ("
          << FormatMs(ex.predicted_ms) << " ms predicted)\n";
    }
    out << "totals: elapsed=" << FormatMs(metrics.elapsed_ms)
        << " ms exchange=" << FormatMs(metrics.exchange_ms)
        << " ms merge=" << FormatMs(metrics.merge_ms)
        << " ms output_rows=" << output_rows << "\n";
    return out.str();
  }
  out << "segments:\n";
  for (const ExplainAnalyzeSegment& seg : segments) {
    out << "  segment " << seg.index << ": " << seg.description << "  ["
        << (seg.degraded ? "degraded"
                         : (seg.engine.empty() ? "pipelined" : seg.engine))
        << "] [cache " << (seg.tuning_cache_hit ? "hit" : "miss") << "]\n";
    out << "    tile_bytes=" << seg.tile_bytes << " tiles=" << seg.num_tiles
        << " workgroups=";
    for (size_t i = 0; i < seg.workgroups.size(); ++i) {
      if (i > 0) out << ",";
      out << seg.workgroups[i];
    }
    out << "\n";
    out << "    cycles: actual=" << FormatCycles(seg.actual_cycles)
        << " predicted=" << FormatCycles(seg.predicted_cycles)
        << " error=" << FormatPct(seg.CycleErrorPct()) << "  ("
        << FormatMs(seg.actual_ms) << " ms simulated)\n";
    out << "    host_wall_ms=" << FormatMs(seg.host_wall_ms)
        << " channel_bytes=" << seg.channel_bytes
        << " materialized_bytes=" << seg.materialized_bytes << "\n";
    out << "    cache: " << seg.subplan_cache << "\n";
    if (seg.fused_groups > 0) {
      out << "    fusion: groups=" << seg.fused_groups
          << " launches_saved=" << seg.launches_saved
          << " bytes_avoided=" << seg.fused_bytes_avoided << "\n";
    }
    for (const ExplainAnalyzeStage& stage : seg.stages) {
      out << "      " << stage.kernel << ": rows " << stage.rows_in << " -> "
          << stage.rows_out << "  bytes " << stage.bytes_in << " -> "
          << stage.bytes_out << "\n";
    }
  }
  double actual_total = 0.0;
  double predicted_total = 0.0;
  double host_total = 0.0;
  for (const ExplainAnalyzeSegment& seg : segments) {
    actual_total += seg.actual_cycles;
    predicted_total += seg.predicted_cycles;
    host_total += seg.host_wall_ms;
  }
  const double total_error =
      actual_total > 0.0
          ? (predicted_total - actual_total) / actual_total * 100.0
          : 0.0;
  out << "totals: segments=" << segments.size()
      << " actual_cycles=" << FormatCycles(actual_total) << " ("
      << FormatMs(metrics.elapsed_ms)
      << " ms) predicted_cycles=" << FormatCycles(predicted_total) << " ("
      << FormatMs(metrics.predicted_ms)
      << " ms) error=" << FormatPct(total_error) << "\n";
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
  std::string out = "{";
  AppendJsonField(&out, "query", query, /*quote=*/true);
  AppendJsonField(&out, "mode", mode, /*quote=*/true);
  AppendJsonField(&out, "device", device, /*quote=*/true);
  AppendJsonInt(&out, "output_rows", output_rows);
  if (num_shards > 1) {
    // Sharded-run block, omitted for single-device runs so their JSON stays
    // byte-stable across this change.
    AppendJsonInt(&out, "num_shards", num_shards);
    AppendJsonBool(&out, "partial_combine", partial_combine);
    AppendJsonField(&out, "fallback_reason", fallback_reason, /*quote=*/true);
    out += ",\"exchanges\":[";
    for (size_t i = 0; i < exchanges.size(); ++i) {
      const ExplainAnalyzeExchange& ex = exchanges[i];
      if (i > 0) out += ",";
      out += "{";
      AppendJsonField(&out, "table", ex.table, /*quote=*/true);
      AppendJsonField(&out, "kind", ex.kind, /*quote=*/true);
      AppendJsonInt(&out, "predicted_bytes", ex.predicted_bytes);
      AppendJsonInt(&out, "actual_bytes", ex.actual_bytes);
      AppendJsonNumber(&out, "predicted_ms", ex.predicted_ms);
      out += "}";
    }
    out += "]";
  }
  out += ",\"segments\":[";
  for (size_t i = 0; i < segments.size(); ++i) {
    const ExplainAnalyzeSegment& seg = segments[i];
    if (i > 0) out += ",";
    out += "{";
    AppendJsonInt(&out, "index", seg.index);
    AppendJsonField(&out, "description", seg.description, /*quote=*/true);
    AppendJsonInt(&out, "num_tiles", seg.num_tiles);
    AppendJsonInt(&out, "tile_bytes", seg.tile_bytes);
    out += ",\"workgroups\":[";
    for (size_t w = 0; w < seg.workgroups.size(); ++w) {
      if (w > 0) out += ",";
      out += std::to_string(seg.workgroups[w]);
    }
    out += "]";
    AppendJsonNumber(&out, "actual_cycles", seg.actual_cycles);
    AppendJsonNumber(&out, "predicted_cycles", seg.predicted_cycles);
    AppendJsonNumber(&out, "actual_ms", seg.actual_ms);
    AppendJsonNumber(&out, "predicted_ms", seg.predicted_ms);
    AppendJsonNumber(&out, "cycle_error_pct", seg.CycleErrorPct());
    AppendJsonNumber(&out, "host_wall_ms", seg.host_wall_ms);
    AppendJsonInt(&out, "channel_bytes", seg.channel_bytes);
    AppendJsonInt(&out, "materialized_bytes", seg.materialized_bytes);
    AppendJsonBool(&out, "tuning_cache_hit", seg.tuning_cache_hit);
    AppendJsonBool(&out, "degraded", seg.degraded);
    AppendJsonField(&out, "subplan_cache", seg.subplan_cache, /*quote=*/true);
    AppendJsonField(&out, "engine",
                    seg.engine.empty() ? "pipelined" : seg.engine,
                    /*quote=*/true);
    AppendJsonInt(&out, "fused_groups", seg.fused_groups);
    AppendJsonInt(&out, "launches_saved", seg.launches_saved);
    AppendJsonInt(&out, "fused_bytes_avoided", seg.fused_bytes_avoided);
    out += ",\"stages\":[";
    for (size_t s = 0; s < seg.stages.size(); ++s) {
      const ExplainAnalyzeStage& stage = seg.stages[s];
      if (s > 0) out += ",";
      out += "{";
      AppendJsonField(&out, "kernel", stage.kernel, /*quote=*/true);
      AppendJsonInt(&out, "rows_in", stage.rows_in);
      AppendJsonInt(&out, "bytes_in", stage.bytes_in);
      AppendJsonInt(&out, "rows_out", stage.rows_out);
      AppendJsonInt(&out, "bytes_out", stage.bytes_out);
      out += "}";
    }
    out += "]}";
  }
  out += "]";
  MetricsJsonEntry entry;
  entry.query = query;
  entry.mode = mode;
  entry.device = device;
  entry.metrics = metrics;
  out += ",\"metrics\":" + QueryMetricsToJson(entry);
  out += "}";
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
    GPL_ASSIGN_OR_RETURN(shard::DistributedExplain dist,
                         sharded->Explain(query));
    GPL_ASSIGN_OR_RETURN(QueryResult result, sharded->Execute(query, exec));

    ExplainAnalyzeReport report;
    report.query = query.name;
    report.mode = EngineModeName(mode);
    report.device = sharded->group().ToString();
    report.plan_text = dist.plan_text;
    report.metrics = result.metrics;
    report.output_rows = result.table.num_rows();
    report.num_shards = dist.num_shards;
    report.partial_combine = result.metrics.partial_combine;
    report.fallback_reason = dist.fallback_reason;
    for (const shard::ExchangeOpReport& ex : dist.exchanges) {
      ExplainAnalyzeExchange entry;
      entry.table = ex.table;
      entry.kind = std::string(ExchangeKindName(ex.kind));
      entry.predicted_bytes = ex.predicted_bytes;
      // Broadcast/repartition traffic is charged exactly as priced; the
      // final gather ships whatever the shards really produced, which
      // Execute() recorded as shuffle_bytes.
      entry.actual_bytes = ex.kind == ExchangeKind::kGather
                               ? result.metrics.shuffle_bytes
                               : ex.predicted_bytes;
      entry.predicted_ms = ex.predicted_ms;
      report.exchanges.push_back(std::move(entry));
    }
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

  const sim::DeviceSpec& device = engine.options().device;
  for (size_t i = 0; i < run.segments.size(); ++i) {
    const SegmentReport& sr = run.segments[i];
    ExplainAnalyzeSegment seg;
    seg.index = static_cast<int>(i);
    seg.description = sr.description;
    seg.num_tiles = sr.observations.num_tiles;
    seg.tile_bytes = sr.tuning.params.tile_bytes;
    seg.workgroups = sr.tuning.params.workgroups;
    seg.predicted_cycles = sr.predicted_cycles;
    seg.actual_cycles = sr.measured_cycles;
    seg.predicted_ms = device.CyclesToMs(sr.predicted_cycles);
    seg.actual_ms = device.CyclesToMs(sr.measured_cycles);
    seg.host_wall_ms = sr.host_wall_ms;
    seg.channel_bytes = sr.sim.counters.bytes_via_channel;
    seg.materialized_bytes = sr.sim.counters.bytes_materialized;
    seg.tuning_cache_hit = sr.tuning_cache_hit;
    seg.degraded = sr.degraded;
    seg.subplan_cache = SubplanOutcomeName(sr.subplan_cache);
    seg.engine = model::SegmentEngineName(sr.engine);
    seg.fused_groups = sr.fused_groups;
    seg.launches_saved = sr.launches_saved;
    seg.fused_bytes_avoided = sr.fused_bytes_avoided;
    for (size_t s = 0; s < sr.observations.stages.size(); ++s) {
      ExplainAnalyzeStage stage;
      // Stage names come from the original per-stage kernels: for a fused
      // segment sr.sim.kernels are the composed launches, not the stages.
      stage.kernel = s < sr.stage_names.size() ? sr.stage_names[s]
                                               : "k_" + std::to_string(s);
      stage.rows_in = sr.observations.stages[s].rows_in;
      stage.bytes_in = sr.observations.stages[s].bytes_in;
      stage.rows_out = sr.observations.stages[s].rows_out;
      stage.bytes_out = sr.observations.stages[s].bytes_out;
      seg.stages.push_back(std::move(stage));
    }
    report.segments.push_back(std::move(seg));
  }
  return report;
}

}  // namespace gpl

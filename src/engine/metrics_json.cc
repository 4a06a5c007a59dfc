#include "engine/metrics_json.h"

#include "trace/json.h"

namespace gpl {

std::string QueryMetricsToJson(const MetricsJsonEntry& entry) {
  const QueryMetrics& m = entry.metrics;
  const sim::HwCounters& c = m.counters;
  std::string out;
  trace::JsonObjectWriter json(&out);
  json.Field("query", entry.query)
      .Field("mode", entry.mode)
      .Field("device", entry.device)
      .Field("elapsed_ms", m.elapsed_ms)
      .Field("predicted_ms", m.predicted_ms);
  // Host wall-clock fields, kept apart from the simulated-time fields above:
  // they are nondeterministic (thread scheduling, machine load) and must not
  // be summed with simulated times.
  json.Field("plan_wall_ms", m.plan_wall_ms)
      .Field("tune_wall_ms", m.tune_wall_ms)
      .Field("optimize_wall_ms", m.OptimizeWallMs())
      .Field("tuning_cache_hits", m.tuning_cache_hits)
      .Field("tuning_cache_misses", m.tuning_cache_misses)
      .Field("subplan_cache_hits", m.subplan_cache_hits)
      .Field("subplan_cache_misses", m.subplan_cache_misses)
      .Field("degraded_segments", m.degraded_segments)
      .Field("fused_segments", m.fused_segments)
      .Field("fused_launches_saved", m.fused_launches_saved)
      .Field("fused_bytes_avoided", m.fused_bytes_avoided)
      .Field("valu_busy", m.valu_busy)
      .Field("mem_unit_busy", m.mem_unit_busy)
      .Field("occupancy", m.occupancy)
      .Field("cache_hit_ratio", m.cache_hit_ratio)
      .Field("compute_ms", m.compute_ms)
      .Field("mem_ms", m.mem_ms)
      .Field("dc_ms", m.dc_ms)
      .Field("delay_ms", m.delay_ms)
      .Field("other_ms", m.other_ms)
      .Field("materialized_bytes", m.materialized_bytes)
      .Field("channel_bytes", m.channel_bytes)
      .Field("elapsed_cycles", c.elapsed_cycles)
      .Field("compute_cycles", c.compute_cycles)
      .Field("mem_cycles", c.mem_cycles)
      .Field("channel_cycles", c.channel_cycles)
      .Field("stall_cycles", c.stall_cycles)
      .Field("launch_cycles", c.launch_cycles)
      .Field("cache_hits", c.cache_hits)
      .Field("cache_accesses", c.cache_accesses)
      .Field("resident_wg_time", c.resident_wg_time);
  if (m.num_shards > 0) {
    // Sharded-execution block, only emitted for ShardedExecutor runs so
    // single-device JSON stays byte-stable across this change.
    json.Field("num_shards", m.num_shards)
        .Field("broadcast_bytes", m.broadcast_bytes)
        .Field("shuffle_bytes", m.shuffle_bytes)
        .Field("exchange_bytes", m.exchange_bytes)
        .Field("exchange_all_broadcast_bytes", m.exchange_all_broadcast_bytes)
        .Field("exchange_ms", m.exchange_ms)
        .Field("merge_ms", m.merge_ms)
        .Field("partial_combine", m.partial_combine);
    json.Key("device_elapsed_ms");
    out += trace::JsonNumberArray(m.device_elapsed_ms);
    json.Key("device_utilization");
    out += trace::JsonNumberArray(m.device_utilization);
  }
  json.Close();
  return out;
}

std::string MetricsReportToJson(const std::vector<MetricsJsonEntry>& entries) {
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",\n";
    out += QueryMetricsToJson(entries[i]);
  }
  out += "]";
  return out;
}

}  // namespace gpl

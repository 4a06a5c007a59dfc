#include "engine/metrics_json.h"

#include "trace/json.h"

namespace gpl {

namespace {

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool quote) {
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

void AppendNumber(std::string* out, const char* key, double value) {
  AppendField(out, key, trace::JsonNumber(value), /*quote=*/false);
}

}  // namespace

std::string QueryMetricsToJson(const MetricsJsonEntry& entry) {
  const QueryMetrics& m = entry.metrics;
  const sim::HwCounters& c = m.counters;
  std::string out = "{";
  AppendField(&out, "query", entry.query, /*quote=*/true);
  AppendField(&out, "mode", entry.mode, /*quote=*/true);
  AppendField(&out, "device", entry.device, /*quote=*/true);
  AppendNumber(&out, "elapsed_ms", m.elapsed_ms);
  AppendNumber(&out, "predicted_ms", m.predicted_ms);
  // Host wall-clock fields, kept apart from the simulated-time fields above:
  // they are nondeterministic (thread scheduling, machine load) and must not
  // be summed with simulated times.
  AppendNumber(&out, "plan_wall_ms", m.plan_wall_ms);
  AppendNumber(&out, "tune_wall_ms", m.tune_wall_ms);
  AppendNumber(&out, "optimize_wall_ms", m.OptimizeWallMs());
  AppendNumber(&out, "tuning_cache_hits",
               static_cast<double>(m.tuning_cache_hits));
  AppendNumber(&out, "tuning_cache_misses",
               static_cast<double>(m.tuning_cache_misses));
  AppendNumber(&out, "subplan_cache_hits",
               static_cast<double>(m.subplan_cache_hits));
  AppendNumber(&out, "subplan_cache_misses",
               static_cast<double>(m.subplan_cache_misses));
  AppendNumber(&out, "degraded_segments",
               static_cast<double>(m.degraded_segments));
  AppendNumber(&out, "fused_segments", static_cast<double>(m.fused_segments));
  AppendNumber(&out, "fused_launches_saved",
               static_cast<double>(m.fused_launches_saved));
  AppendNumber(&out, "fused_bytes_avoided",
               static_cast<double>(m.fused_bytes_avoided));
  AppendNumber(&out, "valu_busy", m.valu_busy);
  AppendNumber(&out, "mem_unit_busy", m.mem_unit_busy);
  AppendNumber(&out, "occupancy", m.occupancy);
  AppendNumber(&out, "cache_hit_ratio", m.cache_hit_ratio);
  AppendNumber(&out, "compute_ms", m.compute_ms);
  AppendNumber(&out, "mem_ms", m.mem_ms);
  AppendNumber(&out, "dc_ms", m.dc_ms);
  AppendNumber(&out, "delay_ms", m.delay_ms);
  AppendNumber(&out, "other_ms", m.other_ms);
  AppendNumber(&out, "input_bytes", static_cast<double>(m.input_bytes));
  AppendNumber(&out, "materialized_bytes",
               static_cast<double>(m.materialized_bytes));
  AppendNumber(&out, "channel_bytes", static_cast<double>(m.channel_bytes));
  AppendNumber(&out, "elapsed_cycles", c.elapsed_cycles);
  AppendNumber(&out, "compute_cycles", c.compute_cycles);
  AppendNumber(&out, "mem_cycles", c.mem_cycles);
  AppendNumber(&out, "channel_cycles", c.channel_cycles);
  AppendNumber(&out, "stall_cycles", c.stall_cycles);
  AppendNumber(&out, "launch_cycles", c.launch_cycles);
  AppendNumber(&out, "cache_hits", c.cache_hits);
  AppendNumber(&out, "cache_accesses", c.cache_accesses);
  AppendNumber(&out, "resident_wg_time", c.resident_wg_time);
  if (m.num_shards > 0) {
    // Sharded-execution block, only emitted for ShardedExecutor runs so
    // single-device JSON stays byte-stable across this change.
    AppendNumber(&out, "num_shards", static_cast<double>(m.num_shards));
    AppendNumber(&out, "broadcast_bytes",
                 static_cast<double>(m.broadcast_bytes));
    AppendNumber(&out, "shuffle_bytes", static_cast<double>(m.shuffle_bytes));
    AppendNumber(&out, "exchange_bytes",
                 static_cast<double>(m.exchange_bytes));
    AppendNumber(&out, "exchange_all_broadcast_bytes",
                 static_cast<double>(m.exchange_all_broadcast_bytes));
    AppendNumber(&out, "exchange_ms", m.exchange_ms);
    AppendNumber(&out, "merge_ms", m.merge_ms);
    AppendField(&out, "partial_combine", m.partial_combine ? "true" : "false",
                /*quote=*/false);
    std::string devices = "[";
    for (size_t i = 0; i < m.device_elapsed_ms.size(); ++i) {
      if (i > 0) devices += ",";
      devices += trace::JsonNumber(m.device_elapsed_ms[i]);
    }
    devices += "]";
    AppendField(&out, "device_elapsed_ms", devices, /*quote=*/false);
    std::string utilization = "[";
    for (size_t i = 0; i < m.device_utilization.size(); ++i) {
      if (i > 0) utilization += ",";
      utilization += trace::JsonNumber(m.device_utilization[i]);
    }
    utilization += "]";
    AppendField(&out, "device_utilization", utilization, /*quote=*/false);
  }
  out += "}";
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

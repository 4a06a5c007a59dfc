/// Tuning explorer: shows the optimizer pipeline end to end — the physical
/// plan (EXPLAIN), the segmented pipelined plan, the analytical model's
/// parameter choices (tile size Δ, work-groups wg_Ki, channel configs), and
/// how the tuned execution compares against hand-picked configurations.
#include <cstdio>

#include "common/math_util.h"
#include "engine/engine.h"
#include "plan/segment.h"
#include "queries/tpch_queries.h"

int main() {
  using namespace gpl;

  tpch::DbgenConfig config;
  config.scale_factor = 0.05;
  const tpch::Database db = tpch::Generate(config);
  const LogicalQuery query = queries::Q8();

  // 1. EXPLAIN: the Selinger-optimized physical plan.
  EngineOptions engine_options;
  engine_options.mode = EngineMode::kGpl;
  Engine engine(&db, engine_options);
  Result<PhysicalOpPtr> plan = engine.Plan(query);
  GPL_CHECK(plan.ok());
  std::printf("Physical plan for %s:\n%s\n", query.name.c_str(),
              PlanToString(**plan).c_str());

  // 2. The segmented pipelined plan (Figure 7c-style).
  Result<SegmentedPlan> segmented = SegmentPlan(*plan);
  GPL_CHECK(segmented.ok());
  std::printf("Segments (pipelines split at blocking kernels):\n");
  for (size_t i = 0; i < segmented->segments.size(); ++i) {
    const Segment& seg = segmented->segments[i];
    std::printf("  S%zu [%s]: ", i,
                seg.input_table.empty() ? "intermediate" : seg.input_table.c_str());
    for (size_t s = 0; s < seg.stages.size(); ++s) {
      std::printf("%s%s", s == 0 ? "" : " -> ",
                  seg.stages[s].kernel->name().c_str());
    }
    std::printf("%s\n", seg.output_is_hash_build ? "  (builds hash table)" : "");
  }

  // 3. The tuner's choices per segment.
  Result<GplRunResult> tuned = engine.ExecuteGplDetailed(*plan);
  GPL_CHECK(tuned.ok());
  std::printf("\nModel-selected parameters (tuner ran %.2f ms):\n",
              tuned->tuner_wall_ms);
  for (size_t i = 0; i < tuned->segments.size(); ++i) {
    const SegmentReport& report = tuned->segments[i];
    std::printf("  S%zu: tile=%lld KB, wg={", i,
                static_cast<long long>(report.tuning.params.tile_bytes / 1024));
    for (size_t w = 0; w < report.tuning.params.workgroups.size(); ++w) {
      std::printf("%s%d", w == 0 ? "" : ",", report.tuning.params.workgroups[w]);
    }
    std::printf("}, channels={");
    for (size_t c = 0; c < report.tuning.params.channels.size(); ++c) {
      std::printf("%s(n=%d,p=%d)", c == 0 ? "" : ",",
                  report.tuning.params.channels[c].num_channels,
                  report.tuning.params.channels[c].packet_bytes);
    }
    std::printf("}  predicted %.0f cycles, measured %.0f\n",
                report.predicted_cycles, report.measured_cycles);
  }

  // 4. Tuned execution vs hand-picked configurations.
  const double tuned_ms =
      sim::DeviceSpec::AmdA10().CyclesToMs(tuned->counters.elapsed_cycles);
  std::printf("\n%-34s %10.3f ms\n", "cost-model tuned:", tuned_ms);
  struct Manual {
    const char* label;
    int64_t tile;
    int wg;
  };
  const Manual manual[] = {
      {"manual: tile=256KB, wg=8", KiB(256), 8},
      {"manual: tile=1MB,   wg=16", MiB(1), 16},
      {"manual: tile=16MB,  wg=64", MiB(16), 64},
  };
  for (const Manual& m : manual) {
    EngineOptions options;
    options.mode = EngineMode::kGpl;
    options.exec.use_cost_model = false;
    options.exec.overrides.tile_bytes = m.tile;
    options.exec.overrides.workgroups_per_kernel = m.wg;
    Engine manual_engine(&db, options);
    Result<QueryResult> r = manual_engine.Execute(query);
    GPL_CHECK(r.ok());
    std::printf("%-34s %10.3f ms\n", m.label, r->metrics.elapsed_ms);
  }
  std::printf("\nThe analytical model removes the need to hand-tune Δ, wg_Ki "
              "and channel configs per platform (Section 4).\n");
  return 0;
}

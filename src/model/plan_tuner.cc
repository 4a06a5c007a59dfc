#include "model/plan_tuner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace gpl {
namespace model {

std::vector<int64_t> TileSizeGrid() {
  return {KiB(256), KiB(512), MiB(1), MiB(2), MiB(4), MiB(8), MiB(16)};
}

std::vector<int> WorkgroupGrid(const sim::DeviceSpec& device) {
  // Multiples of #CU so work-groups spread across all CUs (Section 4.1).
  return {device.num_cus, 2 * device.num_cus, 4 * device.num_cus,
          8 * device.num_cus, 16 * device.num_cus};
}

namespace {

/// Channel configs per gap: the Γ-optimal (n, p) for each gap's per-tile
/// payload.
std::vector<sim::ChannelConfig> ChannelsForPayloads(
    const CalibrationTable& calibration, const SegmentDesc& segment,
    int64_t tile_bytes, const TuningOverrides& overrides) {
  const int num_stages = static_cast<int>(segment.stages.size());
  std::vector<sim::ChannelConfig> channels;
  if (num_stages <= 1) return channels;
  const double tiles =
      std::max(1.0, std::ceil(segment.input_bytes /
                              static_cast<double>(std::max<int64_t>(tile_bytes, 1))));
  for (int g = 0; g + 1 < num_stages; ++g) {
    if (overrides.has_channel) {
      channels.push_back(overrides.channel);
      continue;
    }
    const double payload =
        segment.stages[static_cast<size_t>(g)].bytes_out / tiles;
    channels.push_back(
        calibration.Best(static_cast<int64_t>(std::max(payload, 1.0))).config);
  }
  return channels;
}

}  // namespace

TuningChoice TuneSegment(const CostModel& model, const SegmentDesc& segment,
                         const CalibrationTable& calibration,
                         const TuningOverrides& overrides) {
  const int num_stages = static_cast<int>(segment.stages.size());
  GPL_CHECK(num_stages > 0);

  std::vector<int64_t> tile_grid =
      overrides.tile_bytes > 0 ? std::vector<int64_t>{overrides.tile_bytes}
                               : TileSizeGrid();
  std::vector<int> wg_grid =
      overrides.workgroups_per_kernel > 0
          ? std::vector<int>{overrides.workgroups_per_kernel}
          : WorkgroupGrid(model.device());

  // Relative per-row work of each stage, for proportional wg allocation.
  std::vector<double> work(static_cast<size_t>(num_stages), 1.0);
  double max_work = 1.0;
  for (int i = 0; i < num_stages; ++i) {
    const StageDesc& s = segment.stages[static_cast<size_t>(i)];
    work[static_cast<size_t>(i)] =
        std::max(1.0, s.rows_in * (s.timing.compute_inst_per_row +
                                   s.timing.mem_inst_per_row));
    max_work = std::max(max_work, work[static_cast<size_t>(i)]);
  }

  // Enumerate the full candidate grid first (tile outer, wg inner,
  // allocation shape innermost — the same order the serial nested loops
  // visited), then evaluate the candidates over the thread pool.
  struct Candidate {
    int64_t tile_bytes = 0;
    size_t channels_index = 0;  ///< into per-tile channel configs
    std::vector<int> workgroups;
  };
  std::vector<std::vector<sim::ChannelConfig>> channels_per_tile;
  channels_per_tile.reserve(tile_grid.size());
  std::vector<Candidate> candidates;
  candidates.reserve(tile_grid.size() * wg_grid.size() * 2);
  for (int64_t tile : tile_grid) {
    channels_per_tile.push_back(
        ChannelsForPayloads(calibration, segment, tile, overrides));
    for (int wg : wg_grid) {
      // Two allocation shapes per (Δ, wg): uniform and work-proportional.
      Candidate uniform;
      uniform.tile_bytes = tile;
      uniform.channels_index = channels_per_tile.size() - 1;
      uniform.workgroups.assign(static_cast<size_t>(num_stages), wg);
      std::vector<int> proportional(static_cast<size_t>(num_stages));
      for (int i = 0; i < num_stages; ++i) {
        const double frac = work[static_cast<size_t>(i)] / max_work;
        const int scaled = static_cast<int>(std::ceil(
            frac * wg / model.device().num_cus)) * model.device().num_cus;
        proportional[static_cast<size_t>(i)] =
            std::max(model.device().num_cus, scaled);
      }
      const bool keep_proportional = proportional != uniform.workgroups &&
                                     overrides.workgroups_per_kernel == 0;
      candidates.push_back(std::move(uniform));
      if (keep_proportional) {
        Candidate shaped;
        shaped.tile_bytes = tile;
        shaped.channels_index = channels_per_tile.size() - 1;
        shaped.workgroups = std::move(proportional);
        candidates.push_back(std::move(shaped));
      }
    }
  }
  GPL_CHECK(!candidates.empty());

  // Each candidate is estimated independently; the allocation is read
  // through a const reference into the candidate's own storage, so there is
  // no aliasing (the old single-params loop moved the allocation in and back
  // out on every iteration).
  const auto evaluate = [&](const Candidate& c) {
    SegmentParams params;
    params.tile_bytes = c.tile_bytes;
    params.workgroups = c.workgroups;
    params.channels = channels_per_tile[c.channels_index];
    return model.EstimateSegment(segment, params);
  };
  std::vector<SegmentEstimate> estimates(candidates.size());
  ParallelFor(0, static_cast<int64_t>(candidates.size()), /*grain=*/4,
              [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) {
                  estimates[static_cast<size_t>(i)] =
                      evaluate(candidates[static_cast<size_t>(i)]);
                }
              });

  // Deterministic argmin: strict less-than in candidate order, matching the
  // serial search exactly (ties keep the earliest candidate).
  size_t best_index = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (estimates[i].total_cycles < estimates[best_index].total_cycles) {
      best_index = i;
    }
  }
  TuningChoice best;
  best.params.tile_bytes = candidates[best_index].tile_bytes;
  best.params.workgroups = std::move(candidates[best_index].workgroups);
  best.params.channels =
      std::move(channels_per_tile[candidates[best_index].channels_index]);
  best.estimate = std::move(estimates[best_index]);
  return best;
}

namespace {

/// Grid search of Δ for a sequential execution of `segment` (the fused
/// groups of a ComposeFusedSegment description, one launch at a time). The
/// sequential simulator derives its launch width from the rows per tile
/// (KBE-style), so there is no wg dimension to search; the derived width is
/// recorded in params.workgroups for reporting. Deterministic argmin in grid
/// order.
TuningChoice TuneSequential(const CostModel& model, const SegmentDesc& segment,
                            const TuningOverrides& overrides) {
  const size_t num_stages = segment.stages.size();
  const std::vector<int64_t> tile_grid =
      overrides.tile_bytes > 0 ? std::vector<int64_t>{overrides.tile_bytes}
                               : TileSizeGrid();
  const double rows_per_wg = model.device().wavefront_size * 4.0;
  TuningChoice best;
  bool have_best = false;
  for (int64_t tile : tile_grid) {
    SegmentParams params;
    params.tile_bytes = tile;
    const double tiles = std::max(
        1.0, std::ceil(segment.input_bytes /
                       static_cast<double>(std::max<int64_t>(tile, 1))));
    params.workgroups.resize(num_stages);
    for (size_t i = 0; i < num_stages; ++i) {
      const double rows_tile = std::max(
          1.0, std::floor(std::max(segment.stages[i].rows_in, 0.0) / tiles));
      params.workgroups[i] =
          static_cast<int>(std::max(1.0, std::ceil(rows_tile / rows_per_wg)));
    }
    SegmentEstimate est = model.EstimateSegmentSequential(segment, params);
    if (!have_best || est.total_cycles < best.estimate.total_cycles) {
      best.params = std::move(params);
      best.estimate = std::move(est);
      have_best = true;
    }
  }
  return best;
}

}  // namespace

TuningChoice TuneSegmentEngines(const CostModel& model,
                                const SegmentDesc& segment,
                                const CalibrationTable& calibration,
                                const std::vector<int>& fused_group_sizes,
                                const TuningOverrides& overrides) {
  // Candidate 1: the GPL-channel pipeline over the unfused stages.
  TuningChoice best = TuneSegment(model, segment, calibration, overrides);
  best.engine = SegmentEngine::kGplChannel;

  // The fused candidates exist only when the fusion pass found a chain. The
  // fusion term is implicit in the composed description: fewer stages save
  // launch/dispatch overhead and interior streaming traffic, while the
  // summed register footprint raises occupancy pressure in the estimate.
  bool any_fused = false;
  for (int size : fused_group_sizes) any_fused |= size > 1;
  if (!any_fused) return best;
  const SegmentDesc composed = ComposeFusedSegment(segment, fused_group_sizes);

  // Candidate 2: the fused groups run one launch at a time.
  TuningChoice fused = TuneSequential(model, composed, overrides);
  fused.engine = SegmentEngine::kFused;
  fused.fused_group_sizes = fused_group_sizes;

  // Candidate 3: the fused groups run concurrently, joined by channels.
  TuningChoice fused_pipelined =
      TuneSegment(model, composed, calibration, overrides);
  fused_pipelined.engine = SegmentEngine::kFusedPipelined;
  fused_pipelined.fused_group_sizes = fused_group_sizes;

  GPL_SLOG(Debug, "model")
      .Field("pipelined", best.estimate.total_cycles)
      .Field("fused", fused.estimate.total_cycles)
      .Field("fused_pipelined", fused_pipelined.estimate.total_cycles)
      << "engine candidates";
  // Strict less-than in candidate order: ties keep the earlier engine.
  for (TuningChoice* candidate : {&fused, &fused_pipelined}) {
    if (candidate->estimate.total_cycles < best.estimate.total_cycles) {
      best = std::move(*candidate);
    }
  }
  return best;
}

}  // namespace model
}  // namespace gpl

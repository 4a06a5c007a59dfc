#ifndef GPL_MODEL_PLAN_TUNER_H_
#define GPL_MODEL_PLAN_TUNER_H_

#include <vector>

#include "model/cost_model.h"

namespace gpl {
namespace model {

/// The parameter choice produced by the tuner for one segment, plus the
/// model's prediction for it.
struct TuningChoice {
  SegmentParams params;
  SegmentEstimate estimate;
  /// Which execution engine the estimate (and the choice) is for. TuneSegment
  /// always produces kGplChannel; TuneSegmentEngines picks the cheapest of
  /// kGplChannel, kFused and kFusedPipelined.
  SegmentEngine engine = SegmentEngine::kGplChannel;
  /// When engine is kFused or kFusedPipelined: the fusion grouping the choice
  /// was priced for (consecutive run lengths over the segment's stages), so
  /// params hold one entry per group. Empty otherwise.
  std::vector<int> fused_group_sizes;
};

/// Overrides for individual knobs (0 / empty = let the tuner search). Used
/// by the parameter-sweep benches (Figures 12-15) to pin one knob while the
/// rest stay at their defaults.
struct TuningOverrides {
  int64_t tile_bytes = 0;
  int workgroups_per_kernel = 0;  ///< uniform wg_Ki for every stage
  bool has_channel = false;
  sim::ChannelConfig channel;
};

/// Searches the solution space of Section 4.1 — Δ, wg_Ki, and the channel
/// configuration (n, p) — for the setting minimizing the estimated segment
/// time T_Sk. The channel configuration per gap comes from the calibrated
/// Γ's best setting for the gap's payload (n_max/p_max); Δ is swept over
/// {256 KB .. 16 MB}; wg_Ki over multiples of #CU, both uniformly and
/// proportionally to estimated per-kernel work.
TuningChoice TuneSegment(const CostModel& model, const SegmentDesc& segment,
                         const CalibrationTable& calibration,
                         const TuningOverrides& overrides = {});

/// Per-segment engine selection for the fused mode. Runs the GPL-channel
/// search (TuneSegment) over the segment's stages and, when
/// `fused_group_sizes` contains a run longer than 1, two searches over the
/// ComposeFusedSegment description: the fused groups one launch at a time
/// (EstimateSegmentSequential) and the fused groups joined by channels
/// (TuneSegment). Returns the deterministic argmin. Ties keep the earlier
/// engine in the order pipelined < fused < fused-pipelined, so a segment
/// the fusion pass leaves unfused gets exactly TuneSegment's choice, and no
/// choice is ever priced above it.
TuningChoice TuneSegmentEngines(const CostModel& model,
                                const SegmentDesc& segment,
                                const CalibrationTable& calibration,
                                const std::vector<int>& fused_group_sizes,
                                const TuningOverrides& overrides = {});

/// The Δ grid used by the tuner (also the x-axis of Figures 12/13/25/26).
std::vector<int64_t> TileSizeGrid();

/// The wg multiplier grid (the S1..S7 settings of Figures 14/15 use
/// consecutive powers of two starting at 2).
std::vector<int> WorkgroupGrid(const sim::DeviceSpec& device);

}  // namespace model
}  // namespace gpl

#endif  // GPL_MODEL_PLAN_TUNER_H_

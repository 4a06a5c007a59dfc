#ifndef GPL_MODEL_COST_MODEL_H_
#define GPL_MODEL_COST_MODEL_H_

#include <vector>

#include "model/calibration.h"
#include "sim/device.h"
#include "sim/kernel_desc.h"

namespace gpl {
namespace model {

/// Model-side description of one pipeline stage: the kernel's program-
/// analysis numbers plus the optimizer's cardinality estimates (λ).
struct StageDesc {
  sim::KernelTimingDesc timing;
  double rows_in = 0.0;
  double bytes_in = 0.0;
  double rows_out = 0.0;
  double bytes_out = 0.0;
};

/// Model-side description of a segment.
struct SegmentDesc {
  std::vector<StageDesc> stages;
  double input_bytes = 0.0;          ///< bytes scanned by the leaf kernel
  int64_t extra_resident_bytes = 0;  ///< hash tables probed by this segment
};

/// How a segment's kernels execute, which picks its simulator path. The gpl
/// mode runs kGplChannel and the noce mode kKernelAtATime; the fused mode's
/// tuner picks one of kGplChannel, kFused and kFusedPipelined per segment.
enum class SegmentEngine {
  kGplChannel,      ///< concurrent kernels exchanging tiles through channels
  kKernelAtATime,   ///< one kernel at a time, materialized intermediates
  kFused,           ///< fused groups run one launch at a time, materialized
                    ///< between groups
  kFusedPipelined,  ///< fused groups run concurrently, joined by channels
};

const char* SegmentEngineName(SegmentEngine engine);

/// Composes `count` consecutive stages starting at `first` into the
/// model-side description of one fused kernel: per-row instruction counts
/// are normalized to the fused input's rows, interior streaming traffic is
/// eliminated (intermediates stay in registers), random side-structure
/// accesses survive, and register/local footprints compose as max + half
/// the rest (stages run in turn per item and reuse registers). This is the
/// one place the fused footprint is priced: the tuner and the simulated
/// launch both call it.
StageDesc ComposeFusedStage(const std::vector<StageDesc>& stages, size_t first,
                            size_t count);

/// Applies ComposeFusedStage per group: `group_sizes` partitions
/// segment.stages into consecutive runs; runs of size 1 pass through.
SegmentDesc ComposeFusedSegment(const SegmentDesc& segment,
                                const std::vector<int>& group_sizes);

/// The tunable parameters of one segment's pipelined execution.
struct SegmentParams {
  int64_t tile_bytes = 4 << 20;             ///< Δ
  std::vector<int> workgroups;              ///< wg_Ki per stage
  std::vector<sim::ChannelConfig> channels; ///< per kernel gap
};

/// Analytical estimate of a segment's execution (Eqs. 2-9).
struct SegmentEstimate {
  double total_cycles = 0.0;
  double delay_cycles = 0.0;                ///< Eq. 8
  std::vector<double> kernel_cycles;        ///< T_Ki x r_Ki per stage
  double compute_cycles = 0.0;              ///< sum of c_Ki
  double memory_cycles = 0.0;               ///< sum of m_Ki (global)
  double channel_cycles = 0.0;              ///< sum of channel m_Ki (Eq. 6)
};

/// The analytical model of Section 4: estimates segment execution time from
/// platform inputs (DeviceSpec), calibration (Γ), program analysis (timing
/// descriptors) and query-optimizer estimates (λ), for a given parameter
/// setting. Independent from the event simulator: Figures 11/13/14/24
/// measure its relative error against simulated execution.
class CostModel {
 public:
  CostModel(const sim::DeviceSpec& device, const CalibrationTable* calibration);

  SegmentEstimate EstimateSegment(const SegmentDesc& segment,
                                  const SegmentParams& params) const;

  /// Estimate for kernel-at-a-time execution of the same segment: one kernel
  /// per tile at a time, intermediates materialized, no channels and no
  /// cross-kernel overlap, but per-tile dispatch overhead for every kernel.
  /// Mirrors sim::Simulator::RunSequentialTiles (the w/o-CE path), and —
  /// applied to a ComposeFusedSegment description — prices the fused
  /// execution, where the launch-overhead and data-path savings appear
  /// because the composed segment simply has fewer, cheaper stages.
  SegmentEstimate EstimateSegmentSequential(const SegmentDesc& segment,
                                            const SegmentParams& params) const;

  const sim::DeviceSpec& device() const { return device_; }

 private:
  sim::DeviceSpec device_;
  const CalibrationTable* calibration_;
  sim::CacheModel cache_;
};

}  // namespace model
}  // namespace gpl

#endif  // GPL_MODEL_COST_MODEL_H_

#ifndef GPL_PLAN_FUSION_H_
#define GPL_PLAN_FUSION_H_

#include <cstdint>
#include <vector>

#include "plan/segment.h"

namespace gpl {

/// The fusion-relevant view of one pipeline stage. PlanFusion operates on
/// these views (extracted from a Segment, or built directly in tests) so the
/// legality rules are testable without kernels.
struct FusionStageView {
  bool blocking = false;
  bool is_aggregate = false;
  bool partial_aggregate = false;
  bool exchange_boundary = false;
  bool multi_consumer = false;
  /// Private memory (registers) per work-item, from the timing descriptor.
  int64_t private_bytes_per_item = 0;
};

/// Register budget of a fused kernel body: fusing chains past this summed
/// per-work-item private footprint would crater occupancy, so the pass splits
/// the chain instead (the cost model then prices what remains).
constexpr int64_t kFusedPrivateBytesBudget = 256;

/// Greedy maximal-chain fusion with these legality rules:
///  - blocking stages (prefix sum, hash/partition build, sort, scan-reduce)
///    never fuse: they are global barriers with materialized output;
///  - complete aggregates never fuse (aggregation boundary: their output
///    exists only after every input row is seen);
///  - partial aggregates may only *terminate* a fused chain — they still
///    accumulate, so nothing can fuse after them;
///  - a stage consuming exchanged data starts its own chain (its producer
///    ran on another device);
///  - a multi-consumer stage terminates its chain (its output must be
///    materialized for the other consumers);
///  - the plain sum of a chain's per-work-item private bytes must stay within
///    kFusedPrivateBytesBudget, else the chain is split.
/// Returns the group sizes in stage order; they cover every stage exactly
/// once, and a group of size 1 executes unfused.
std::vector<int> PlanFusion(const std::vector<FusionStageView>& stages);

/// Extracts the views from a segment's stages and runs the pass.
std::vector<int> PlanFusion(const Segment& segment);

}  // namespace gpl

#endif  // GPL_PLAN_FUSION_H_

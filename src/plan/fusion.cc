#include "plan/fusion.h"

namespace gpl {

namespace {

/// True when the stage can be a member of a fused chain at all. Blocking
/// stages and complete aggregates execute alone.
bool Fusible(const FusionStageView& v) {
  return !v.blocking && !(v.is_aggregate && !v.partial_aggregate);
}

/// True when nothing may fuse *after* this stage: it still accumulates
/// (partial aggregate) or its output must materialize (multi-consumer).
bool TerminatesChain(const FusionStageView& v) {
  return v.partial_aggregate || v.multi_consumer;
}

}  // namespace

std::vector<int> PlanFusion(const std::vector<FusionStageView>& stages) {
  std::vector<int> groups;
  const size_t n = stages.size();
  size_t i = 0;
  while (i < n) {
    size_t count = 1;
    const FusionStageView& head = stages[i];
    if (Fusible(head) && !TerminatesChain(head)) {
      int64_t private_bytes = head.private_bytes_per_item;
      for (size_t j = i + 1; j < n; ++j) {
        const FusionStageView& next = stages[j];
        if (!Fusible(next)) break;
        if (next.exchange_boundary) break;  // must head its own kernel
        if (private_bytes + next.private_bytes_per_item >
            kFusedPrivateBytesBudget) {
          break;  // register budget: occupancy would crater
        }
        private_bytes += next.private_bytes_per_item;
        ++count;
        if (TerminatesChain(next)) break;  // included as the chain's tail
      }
    }
    groups.push_back(static_cast<int>(count));
    i += count;
  }
  return groups;
}

std::vector<int> PlanFusion(const Segment& segment) {
  std::vector<FusionStageView> views;
  views.reserve(segment.stages.size());
  for (const Stage& stage : segment.stages) {
    FusionStageView v;
    v.blocking = stage.kernel->blocking();
    v.is_aggregate = stage.is_aggregate;
    v.partial_aggregate = stage.partial_aggregate;
    v.exchange_boundary = stage.exchange_boundary;
    v.multi_consumer = stage.multi_consumer;
    v.private_bytes_per_item = stage.kernel->timing().private_bytes_per_item;
    views.push_back(v);
  }
  return PlanFusion(views);
}

}  // namespace gpl

#include "exec/fused_kernel.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gpl {

FusedKernel::FusedKernel(std::vector<KernelPtr> children)
    : children_(std::move(children)) {
  GPL_CHECK(!children_.empty());
  observations_.resize(children_.size());
  timing_.name = "fused(";
  int64_t private_sum = 0;
  int64_t private_max = 0;
  int64_t local_sum = 0;
  int64_t local_max = 0;
  for (size_t i = 0; i < children_.size(); ++i) {
    GPL_CHECK(children_[i] != nullptr);
    GPL_CHECK(!children_[i]->blocking())
        << "blocking kernel " << children_[i]->name()
        << " cannot be part of a fused kernel";
    if (i > 0) timing_.name += '+';
    timing_.name += children_[i]->name();
    private_sum += children_[i]->timing().private_bytes_per_item;
    private_max =
        std::max(private_max, children_[i]->timing().private_bytes_per_item);
    local_sum += children_[i]->timing().local_bytes_per_item;
    local_max =
        std::max(local_max, children_[i]->timing().local_bytes_per_item);
  }
  timing_.name += ')';
  // Register footprint of the composed body: stages execute sequentially per
  // item, so the compiler reuses part of each stage's registers — max plus
  // half the rest (matches model::ComposeFusedStage).
  timing_.private_bytes_per_item = private_max + (private_sum - private_max) / 2;
  timing_.local_bytes_per_item = local_max + (local_sum - local_max) / 2;
  timing_.blocking = false;
}

Result<RowBatch> FusedKernel::FlowFrom(size_t first, RowBatch batch) {
  for (size_t s = first; s < children_.size(); ++s) {
    FusedStageObservation& obs = observations_[s];
    obs.rows_in += batch.num_rows();
    obs.bytes_in += batch.byte_size();
    GPL_ASSIGN_OR_RETURN(RowBatch out, children_[s]->ProcessBatch(batch));
    obs.rows_out += out.num_rows();
    obs.bytes_out += out.byte_size();
    batch = std::move(out);
    if (batch.num_columns() == 0) {
      return batch;  // child withheld output (accumulating kernel)
    }
  }
  return batch;
}

Result<RowBatch> FusedKernel::ProcessBatch(const RowBatch& input) {
  return FlowFrom(0, input);
}

Result<Table> FusedKernel::Finish() {
  std::vector<RowBatch> parts;
  // Mirror the segment-level Finish cascade: each child's withheld emission
  // flows through the remaining children, concatenated in child order.
  for (size_t s = 0; s < children_.size(); ++s) {
    GPL_ASSIGN_OR_RETURN(Table emitted, children_[s]->Finish());
    if (emitted.num_columns() == 0) continue;
    FusedStageObservation& obs = observations_[s];
    obs.rows_out += emitted.num_rows();
    obs.bytes_out += emitted.byte_size();
    GPL_ASSIGN_OR_RETURN(RowBatch flowed,
                         FlowFrom(s + 1, RowBatch(std::move(emitted))));
    if (flowed.num_columns() == 0) continue;  // withheld downstream
    parts.push_back(std::move(flowed));
  }
  return RowBatch::Concatenate(parts);
}

void FusedKernel::Reset() {
  for (const KernelPtr& child : children_) child->Reset();
  observations_.assign(children_.size(), FusedStageObservation{});
}

void FusedKernel::PrepareTiming() {
  for (const KernelPtr& child : children_) child->PrepareTiming();
}

int64_t FusedKernel::MaterializedStateBytes() const {
  return children_.back()->MaterializedStateBytes();
}

}  // namespace gpl

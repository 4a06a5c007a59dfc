#ifndef GPL_EXEC_FUSED_KERNEL_H_
#define GPL_EXEC_FUSED_KERNEL_H_

#include <vector>

#include "exec/kernel.h"

namespace gpl {

/// Observed cardinalities of one child kernel inside a fused execution —
/// identical in meaning to core's StageObservation, duplicated here so exec
/// does not depend on core.
struct FusedStageObservation {
  int64_t rows_in = 0;
  int64_t bytes_in = 0;
  int64_t rows_out = 0;
  int64_t bytes_out = 0;
};

/// A fused kernel: a chain of non-blocking child kernels executed as one
/// kernel body. Each input batch flows child-to-child register-to-register —
/// no per-stage materialization, no channel hand-off (on the host the
/// children pass RowBatches, so none copies a column it only carries) — and
/// Finish() cascades each child's withheld emission through the remaining
/// children, exactly mirroring the unfused pipeline's FlowBatch/Finish
/// semantics so results stay bit-identical to per-stage execution.
///
/// Per-child observations are recorded so the timing layer can still account
/// the original stages' cardinalities (the fusion win is priced analytically,
/// not by hiding work).
class FusedKernel final : public Kernel {
 public:
  explicit FusedKernel(std::vector<KernelPtr> children);

  Result<RowBatch> ProcessBatch(const RowBatch& input) override;
  Result<Table> Finish() override;
  void Reset() override;
  void PrepareTiming() override;
  int64_t MaterializedStateBytes() const override;

  const std::vector<KernelPtr>& children() const { return children_; }
  const std::vector<FusedStageObservation>& observations() const {
    return observations_;
  }

 private:
  /// Flows one batch through children [first, end); returns the surviving
  /// batch, or a batch with no columns when a child withheld it.
  Result<RowBatch> FlowFrom(size_t first, RowBatch batch);

  std::vector<KernelPtr> children_;
  std::vector<FusedStageObservation> observations_;
};

}  // namespace gpl

#endif  // GPL_EXEC_FUSED_KERNEL_H_

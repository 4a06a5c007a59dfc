#ifndef GPL_EXEC_KERNEL_H_
#define GPL_EXEC_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/row_batch.h"
#include "sim/kernel_desc.h"
#include "storage/table.h"

namespace gpl {

/// A (simulated) GPU kernel: the functional body of one pipeline stage plus
/// its timing descriptor. Kernels are streaming transformers: the engines
/// push batches (tiles) through ProcessBatch() and call Finish() after the
/// last batch; kernels that accumulate state (hash build, aggregation, sort)
/// withhold output until Finish(). Batches are RowBatches: a kernel gathers
/// the columns it reads and passes the rest on by position (DESIGN.md
/// decision 13).
///
/// The same kernel objects serve both execution modes: KBE pushes the whole
/// input as one batch, GPL pushes tile-sized batches connected by simulated
/// channels. Timing is accounted separately by sim::Simulator using the
/// cardinalities observed here.
class Kernel {
 public:
  virtual ~Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const sim::KernelTimingDesc& timing() const { return timing_; }
  sim::KernelTimingDesc* mutable_timing() { return &timing_; }
  const std::string& name() const { return timing_.name; }
  bool blocking() const { return timing_.blocking; }

  /// Processes one input batch; returns the rows emitted for this batch, or
  /// a batch with no columns when the kernel withholds them.
  virtual Result<RowBatch> ProcessBatch(const RowBatch& input) = 0;

  /// ProcessBatch over all rows of `input`, materialized.
  Result<Table> Process(const Table& input) {
    GPL_ASSIGN_OR_RETURN(RowBatch out, ProcessBatch(RowBatch(input)));
    return out.Materialize();
  }

  /// Emits any withheld output after the last batch. Default: nothing.
  virtual Result<Table> Finish() { return Table(); }

  /// Clears accumulated state so the kernel can run again.
  virtual void Reset() {}

  /// Refreshes timing-descriptor fields that depend on runtime state (e.g. a
  /// probe kernel's hash-table working set once the build segment has run).
  /// Called before cost-model tuning.
  virtual void PrepareTiming() {}

  /// Bytes this kernel materialized in global memory as side state (hash
  /// tables). Defaults to the timing descriptor's random working set; the
  /// partitioned build overrides it with the total across partitions.
  virtual int64_t MaterializedStateBytes() const {
    return timing_.random_working_set_bytes;
  }

 protected:
  Kernel() = default;

  sim::KernelTimingDesc timing_;
};

using KernelPtr = std::shared_ptr<Kernel>;

}  // namespace gpl

#endif  // GPL_EXEC_KERNEL_H_

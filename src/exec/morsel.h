#ifndef GPL_EXEC_MORSEL_H_
#define GPL_EXEC_MORSEL_H_

#include <cstdint>
#include <vector>

#include "exec/expr.h"
#include "exec/hash_table.h"
#include "exec/row_batch.h"
#include "storage/table.h"

namespace gpl {

/// Morsel-driven parallel helpers for the functional bodies of the exec
/// primitives. Each helper is bit-identical to the corresponding serial
/// loop at any CurrentHostParallelism(): work is split at fixed kMorselRows
/// boundaries (common/thread_pool.h), per-morsel intermediates are written
/// to position-derived slots, and results are concatenated back together in
/// morsel order. Expression evaluation is pure and per-row (exec/expr.cc
/// never mutates a Dictionary during Evaluate), so slicing it is safe. Each
/// morsel gathers from the RowBatch only the columns the expressions name
/// in CollectColumnRefs, at that morsel's rows (DESIGN.md decisions 12, 13).
///
/// These affect *host* wall-clock only; the simulated kernel timing is
/// derived from the KernelTimingDescs and cardinalities, never from how the
/// host computed the result.

/// expr.Evaluate over the rows of `input`, morsel-parallel. Bit-identical
/// output column.
Column EvaluateMorsels(const Expr& expr, const RowBatch& input);

/// Row indices where `predicate` is nonzero, ascending — the functional body
/// of map/select (filter).
std::vector<int64_t> SelectIndices(const Expr& predicate,
                                   const RowBatch& input);

/// Packed int64 join keys for 1- or 2-key equi-joins (the hash build/probe
/// key pipeline; see JoinHashTable::PackKeys).
std::vector<int64_t> EvaluateJoinKeys(const RowBatch& input,
                                      const std::vector<ExprPtr>& key_exprs);

/// Probes `table` with every key in order, appending (probe row, build row)
/// pairs exactly as the serial probe loop does: ascending probe row, chain
/// order within a probe row.
void ProbeAll(const JoinHashTable& table, const std::vector<int64_t>& keys,
              std::vector<int64_t>* probe_idx, std::vector<int64_t>* build_idx);

}  // namespace gpl

#endif  // GPL_EXEC_MORSEL_H_

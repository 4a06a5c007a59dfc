#ifndef GPL_EXEC_PRIMITIVES_H_
#define GPL_EXEC_PRIMITIVES_H_

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/expr.h"
#include "exec/hash_table.h"
#include "exec/kernel.h"

namespace gpl {

// ---------------------------------------------------------------------------
// Streaming kernels (shared by GPL pipelines and KBE whole-input execution)
// ---------------------------------------------------------------------------

/// One aggregate in an AggregateKernel.
struct AggSpec {
  enum Func { kSum, kCount, kAvg, kMin, kMax };
  Func func = kSum;
  ExprPtr arg;  ///< ignored for kCount
  std::string output_name;
};

/// Group-by key of a float64 value: its bits with the magnitude bits of a
/// negative value flipped, so signed key order is numeric order. -0.0 keys
/// as 0.0 and every NaN as one quiet NaN (after +inf). Integer group values
/// key as themselves, widened to int64. Float64FromGroupKey inverts it.
inline int64_t Float64GroupKey(double v) {
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  const int64_t bits = std::bit_cast<int64_t>(v);
  return bits < 0 ? bits ^ std::numeric_limits<int64_t>::max() : bits;
}

inline double Float64FromGroupKey(int64_t key) {
  return std::bit_cast<double>(
      key < 0 ? key ^ std::numeric_limits<int64_t>::max() : key);
}

/// One output column of a projection: name plus defining expression.
struct ProjectedColumn {
  std::string name;
  ExprPtr expr;
};

/// One sort key for SortKernel: column name and direction.
struct SortKey {
  std::string column;
  bool descending = false;
};

/// GPL-style selection (k_map): evaluates the predicate per tuple and emits
/// only the satisfying rows (the prefix-sum kernel of KBE is removed,
/// Section 3.2).
KernelPtr MakeFilterKernel(ExprPtr predicate);

/// Projection/map: computes the listed output columns.
KernelPtr MakeProjectKernel(std::vector<ProjectedColumn> columns);

/// Hash build: accumulates the build side and inserts keys. Blocking (a
/// barrier follows it; its output — the hash table plus the saved build
/// rows — is materialized in global memory).
///
/// `key_exprs` may contain one or two int-typed expressions (two are packed
/// into a composite key, e.g. Q9's partsupp join).
class HashJoinState;  // shared between build and probe kernels
KernelPtr MakeHashBuildKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state);

/// Hash probe: probes the shared table; output = probe-side columns plus the
/// requested build-side payload columns. Non-blocking.
KernelPtr MakeHashProbeKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state,
                              std::vector<std::string> build_payload);

/// Which table an aggregate kernel emits at Finish().
///
/// kComplete emits the final aggregate table. kPartial emits the
/// shard-partial wire format: the group columns in their final form plus,
/// per aggregate, a count column and either the exact-sum canonical digits
/// (sum/avg — see exec/exact_sum.h) or the running min/max value. Partials
/// from any row partition merge back to the bit-exact complete result via
/// CombinePartialAggregates().
enum class AggregatePhase { kComplete, kPartial };

/// GPL-style non-blocking aggregation (k_reduce*): accumulates partial
/// results per packet and emits the group table at Finish().
KernelPtr MakeAggregateKernel(std::vector<ProjectedColumn> group_by,
                              std::vector<AggSpec> aggregates,
                              AggregatePhase phase = AggregatePhase::kComplete);

/// Column names of the partial-aggregate wire format (group columns first,
/// then the per-aggregate state columns).
std::vector<std::string> PartialAggregateColumns(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates);

/// Merges partial-aggregate tables (the wire format emitted by a kPartial
/// aggregate kernel) into the complete aggregate table. Exact: sums merge
/// via canonical superaccumulator digits, counts add, min/max fold — the
/// result is bit-identical to aggregating all input rows on one device,
/// regardless of how rows were partitioned (NaN-free min/max inputs
/// assumed; sums are exact even for adversarial orderings).
Result<Table> CombinePartialAggregates(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates, const std::vector<Table>& partials);

/// Sort (order-by). Blocking: accumulates all input, emits sorted output at
/// Finish().
KernelPtr MakeSortKernel(std::vector<SortKey> keys);

/// Shared state of one hash join: the table and the accumulated build rows.
///
/// When the subplan cache serves a memoized build, it installs the cached
/// snapshot in `shared` instead of re-running the build; probes read through
/// the probe_* accessors so one code path covers both the locally built and
/// the cache-served table. The build kernel always writes the raw members
/// (it only runs when there is no snapshot).
class HashJoinState {
 public:
  JoinHashTable table;
  Table build_rows;
  bool build_rows_initialized = false;
  /// Cache-served build snapshot; null when this join built locally.
  std::shared_ptr<const HashJoinState> shared;

  const JoinHashTable& probe_table() const {
    return shared != nullptr ? shared->table : table;
  }
  const Table& probe_rows() const {
    return shared != nullptr ? shared->build_rows : build_rows;
  }

  void Reset() {
    table = JoinHashTable();
    build_rows = Table();
    build_rows_initialized = false;
    shared.reset();
  }
};

// ---------------------------------------------------------------------------
// KBE-only primitives (the conventional kernel decomposition of selection:
// map -> prefix sum -> scatter, and scan-based aggregation)
// ---------------------------------------------------------------------------

/// Evaluates `predicate` into a 0/1 flags column (KBE k_map).
Column ComputeFlags(const Table& input, const ExprPtr& predicate);

/// Exclusive prefix sum of a 0/1 flags column; *total receives the sum.
Column PrefixSum(const Column& flags, int64_t* total);

/// Ascending positions of the rows whose flag is set: the rows k_scatter
/// keeps, in output order.
std::vector<int64_t> FlaggedRows(const Column& flags);

/// Compacts `input` to the rows whose flag is set, using the offsets
/// (KBE k_scatter), gathering every column.
Table ScatterRows(const Table& input, const Column& flags, const Column& offsets);

// ---------------------------------------------------------------------------
// Timing descriptors (the "program analysis" numbers per kernel type)
// ---------------------------------------------------------------------------

sim::KernelTimingDesc FilterTiming(double predicate_cost);
sim::KernelTimingDesc ProjectTiming(double expr_cost, int num_outputs);
sim::KernelTimingDesc PrefixSumTiming();
sim::KernelTimingDesc ScatterTiming(int num_columns);
sim::KernelTimingDesc HashBuildTiming(int64_t hash_table_bytes);
sim::KernelTimingDesc HashProbeTiming(int64_t hash_table_bytes);
sim::KernelTimingDesc AggregateTiming(double expr_cost, int num_aggregates);
sim::KernelTimingDesc ScanAggregateTiming();  ///< KBE scan-based aggregation
sim::KernelTimingDesc SortTiming();

}  // namespace gpl

#endif  // GPL_EXEC_PRIMITIVES_H_

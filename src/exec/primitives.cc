#include "exec/primitives.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/exact_sum.h"
#include "exec/morsel.h"

namespace gpl {

namespace {

// The functional kernel bodies below are morsel-parallel on the host (see
// exec/morsel.h): they honor CurrentHostParallelism() and are bit-identical
// to the serial path at any thread count. Simulated timing is unaffected —
// it derives from the timing descriptors and observed cardinalities only.
// Each body gathers from its RowBatch only the columns it reads; filters and
// probes pass the rest on by position (DESIGN.md decision 13).

class FilterKernel : public Kernel {
 public:
  explicit FilterKernel(ExprPtr predicate) : predicate_(std::move(predicate)) {
    timing_ = FilterTiming(predicate_->CostPerRow());
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    return input.Select(SelectIndices(*predicate_, input));
  }

 private:
  ExprPtr predicate_;
};

class ProjectKernel : public Kernel {
 public:
  explicit ProjectKernel(std::vector<ProjectedColumn> columns)
      : columns_(std::move(columns)) {
    double cost = 0.0;
    for (const ProjectedColumn& c : columns_) cost += c.expr->CostPerRow();
    timing_ = ProjectTiming(cost, static_cast<int>(columns_.size()));
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    // A bare column reference is carried by position; only the computed
    // columns gather what they read.
    RowBatch out = input.SameRows();
    std::string ref;
    for (const ProjectedColumn& c : columns_) {
      if (c.expr->IsColumnRef(&ref)) {
        GPL_RETURN_NOT_OK(out.CarryColumn(input, ref, c.name));
      } else {
        GPL_RETURN_NOT_OK(
            out.AddColumn(c.name, EvaluateMorsels(*c.expr, input)));
      }
    }
    return out;
  }

 private:
  std::vector<ProjectedColumn> columns_;
};

class HashBuildKernel : public Kernel {
 public:
  HashBuildKernel(std::vector<ExprPtr> key_exprs,
                  std::shared_ptr<HashJoinState> state)
      : key_exprs_(std::move(key_exprs)), state_(std::move(state)) {
    timing_ = HashBuildTiming(0);
  }

  void PrepareTiming() override {
    timing_.random_working_set_bytes = state_->table.byte_size();
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    const int64_t base = state_->build_rows_initialized
                             ? state_->build_rows.num_rows()
                             : 0;
    state_->table.Insert(keys, base);
    // The build rows are a blocking consumer: they materialize here.
    if (!state_->build_rows_initialized) {
      state_->build_rows = input.Materialize();
      state_->build_rows_initialized = true;
    } else {
      GPL_RETURN_NOT_OK(state_->build_rows.AppendTable(input.Materialize()));
    }
    // The hash table materializes in global memory; keep the timing
    // descriptor's working set in sync for downstream probes.
    timing_.random_working_set_bytes = state_->table.byte_size();
    return RowBatch();
  }

  void Reset() override { state_->Reset(); }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<HashJoinState> state_;
};

class HashProbeKernel : public Kernel {
 public:
  HashProbeKernel(std::vector<ExprPtr> key_exprs,
                  std::shared_ptr<HashJoinState> state,
                  std::vector<std::string> build_payload)
      : key_exprs_(std::move(key_exprs)),
        state_(std::move(state)),
        build_payload_(std::move(build_payload)) {
    timing_ = HashProbeTiming(0);
  }

  void PrepareTiming() override {
    timing_.random_working_set_bytes = state_->probe_table().byte_size();
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    timing_.random_working_set_bytes = state_->probe_table().byte_size();
    const std::vector<int64_t> keys = EvaluateJoinKeys(input, key_exprs_);
    std::vector<int64_t> probe_idx;
    std::vector<int64_t> build_idx;
    ProbeAll(state_->probe_table(), keys, &probe_idx, &build_idx);
    // Probe-side columns follow their rows by position; the payload joins
    // as a source read at the matched build rows.
    RowBatch out = input.Select(probe_idx);
    if (!build_payload_.empty()) {
      Table payload(state_->probe_rows().name());
      for (const std::string& name : build_payload_) {
        GPL_RETURN_NOT_OK(
            payload.AddColumn(name, state_->probe_rows().GetColumn(name)));
      }
      GPL_RETURN_NOT_OK(
          out.AddSource(std::move(payload), std::move(build_idx)));
    }
    return out;
  }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::shared_ptr<HashJoinState> state_;
  std::vector<std::string> build_payload_;
};

// Names of the per-aggregate state columns in the partial wire format.
// Index-based so they can never collide with user group/aggregate names.
std::string PartialCountName(size_t a) { return "__pc" + std::to_string(a); }
std::string PartialMetaName(size_t a) { return "__pm" + std::to_string(a); }
std::string PartialValueName(size_t a) { return "__pv" + std::to_string(a); }
std::string PartialDigitName(size_t a, int j) {
  return "__pd" + std::to_string(a) + "_" + std::to_string(j);
}

// Meta-column encoding of an exact sum's sign and special flags.
int64_t EncodeSumMeta(const ExactFloat64Sum::Canonical& c) {
  int64_t meta = c.sign + 1;  // 0, 1, 2
  if (c.any_pos_inf) meta |= 4;
  if (c.any_neg_inf) meta |= 8;
  if (c.any_nan) meta |= 16;
  return meta;
}

ExactFloat64Sum::Canonical DecodeSumMeta(int64_t meta) {
  ExactFloat64Sum::Canonical c;
  c.sign = static_cast<int>(meta & 3) - 1;
  c.any_pos_inf = (meta & 4) != 0;
  c.any_neg_inf = (meta & 8) != 0;
  c.any_nan = (meta & 16) != 0;
  return c;
}

// Every row's group key (Float64GroupKey for a float64 column), read with
// one type dispatch per column.
std::vector<int64_t> GroupKeys(const Column& column) {
  std::vector<int64_t> keys(static_cast<size_t>(column.size()));
  VisitValues(column, [&](const auto* values) {
    using T = std::remove_cvref_t<decltype(*values)>;
    for (size_t i = 0; i < keys.size(); ++i) {
      if constexpr (std::is_same_v<T, double>) {
        keys[i] = Float64GroupKey(values[i]);
      } else {
        keys[i] = values[i];
      }
    }
  });
  return keys;
}

// The column's values widened to double: its own buffer for a float64
// column, otherwise converted into `scratch`.
const double* DoubleValues(const Column& column, std::vector<double>* scratch) {
  if (column.type() == DataType::kFloat64) return column.dataf().data();
  scratch->resize(static_cast<size_t>(column.size()));
  VisitValues(column, [&](const auto* values) {
    for (size_t i = 0; i < scratch->size(); ++i) {
      (*scratch)[i] = static_cast<double>(values[i]);
    }
  });
  return scratch->data();
}

class AggregateKernel : public Kernel {
 public:
  AggregateKernel(std::vector<ProjectedColumn> group_by,
                  std::vector<AggSpec> aggregates, AggregatePhase phase)
      : group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)),
        phase_(phase) {
    double cost = 0.0;
    for (const ProjectedColumn& g : group_by_) cost += g.expr->CostPerRow();
    for (const AggSpec& a : aggregates_) {
      if (a.arg != nullptr) cost += a.arg->CostPerRow();
    }
    timing_ = AggregateTiming(cost, static_cast<int>(aggregates_.size()));
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    const int64_t n = input.num_rows();
    // The first batch fixes the group columns' types and dictionaries even
    // when it is empty, so an empty result keeps its schema.
    if (n == 0 && !group_types_.empty()) return RowBatch();

    // Evaluate group keys and aggregate arguments once per batch. The
    // evaluation is the expensive part and is morsel-parallel; the
    // accumulation loop below stays serial in row order. Double sums go
    // through an exact superaccumulator (exec/exact_sum.h), so the
    // accumulated state — and the rounded result — is independent of row
    // order and of how rows are partitioned across shards.
    std::vector<Column> group_cols;
    group_cols.reserve(group_by_.size());
    for (const ProjectedColumn& g : group_by_) {
      group_cols.push_back(EvaluateMorsels(*g.expr, input));
    }
    if (group_types_.empty()) {
      for (const Column& c : group_cols) {
        group_types_.push_back(c.type());
        group_dicts_.push_back(c.dictionary());
      }
    }
    if (n == 0) return RowBatch();
    std::vector<std::vector<int64_t>> keys;
    keys.reserve(group_cols.size());
    for (const Column& c : group_cols) keys.push_back(GroupKeys(c));
    // Argument values as doubles; agg_cols keeps their buffers alive.
    std::vector<Column> agg_cols;
    std::vector<std::vector<double>> scratch(aggregates_.size());
    std::vector<const double*> args(aggregates_.size(), nullptr);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      if (spec.func != AggSpec::kCount && spec.arg != nullptr) {
        agg_cols.push_back(EvaluateMorsels(*spec.arg, input));
        args[a] = DoubleValues(agg_cols.back(), &scratch[a]);
      }
    }

    std::vector<int64_t> key(group_by_.size());
    for (int64_t i = 0; i < n; ++i) {
      const size_t row = static_cast<size_t>(i);
      for (size_t g = 0; g < keys.size(); ++g) key[g] = keys[g][row];
      Accumulators& acc = GroupAt(key);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        switch (aggregates_[a].func) {
          case AggSpec::kSum:
          case AggSpec::kAvg:
            acc.sums[a].Add(args[a][row]);
            break;
          case AggSpec::kCount:
            break;  // counts only
          case AggSpec::kMin:
            acc.values[a] = std::min(acc.values[a], args[a][row]);
            break;
          case AggSpec::kMax:
            acc.values[a] = std::max(acc.values[a], args[a][row]);
            break;
        }
        acc.counts[a] += 1;
      }
    }
    return RowBatch();  // partial aggregation; emitted at Finish()
  }

  /// Merges one partial-aggregate table (the kPartial wire format) into the
  /// accumulated state. Used by CombinePartialAggregates().
  Status IngestPartial(const Table& partial) {
    const int64_t n = partial.num_rows();
    if (partial.num_columns() == 0) return Status::OK();  // no schema to learn
    std::vector<const Column*> group_cols;
    for (const ProjectedColumn& g : group_by_) {
      group_cols.push_back(&partial.GetColumn(g.name));
    }
    if (group_types_.empty()) {
      for (const Column* c : group_cols) {
        group_types_.push_back(c->type());
        group_dicts_.push_back(c->dictionary());
      }
    }
    if (n == 0) return Status::OK();  // empty shard: nothing to merge
    std::vector<std::vector<int64_t>> keys;
    for (const Column* c : group_cols) keys.push_back(GroupKeys(*c));
    std::vector<int64_t> key(group_by_.size());
    for (int64_t i = 0; i < n; ++i) {
      for (size_t g = 0; g < keys.size(); ++g) {
        key[g] = keys[g][static_cast<size_t>(i)];
      }
      Accumulators& acc = GroupAt(key);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        switch (aggregates_[a].func) {
          case AggSpec::kSum:
          case AggSpec::kAvg:
          case AggSpec::kCount:
            // Only these consume counts downstream (kCount's output, kAvg's
            // divide); min/max partials carry no count column at all.
            acc.counts[a] += partial.GetColumn(PartialCountName(a)).Int64At(i);
            break;
          case AggSpec::kMin:
          case AggSpec::kMax:
            break;
        }
        switch (aggregates_[a].func) {
          case AggSpec::kSum:
          case AggSpec::kAvg: {
            ExactFloat64Sum::Canonical c =
                DecodeSumMeta(partial.GetColumn(PartialMetaName(a)).Int64At(i));
            for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
              c.digits[static_cast<size_t>(j)] = static_cast<uint64_t>(
                  partial.GetColumn(PartialDigitName(a, j)).Int64At(i));
            }
            acc.sums[a].AddCanonical(c);
            break;
          }
          case AggSpec::kCount:
            break;
          case AggSpec::kMin:
            acc.values[a] = std::min(
                acc.values[a], partial.GetColumn(PartialValueName(a)).DoubleAt(i));
            break;
          case AggSpec::kMax:
            acc.values[a] = std::max(
                acc.values[a], partial.GetColumn(PartialValueName(a)).DoubleAt(i));
            break;
        }
      }
    }
    return Status::OK();
  }

  Result<Table> Finish() override {
    Table out("aggregate");
    // Group columns (final form in both phases, so partials round-trip
    // through the same GroupKeys extraction).
    for (size_t g = 0; g < group_by_.size(); ++g) {
      const DataType type =
          group_types_.empty() ? DataType::kInt64 : group_types_[g];
      Column col(type, group_dicts_.empty() ? nullptr : group_dicts_[g]);
      for (const auto& [key, acc] : groups_) {
        switch (type) {
          case DataType::kInt32:
          case DataType::kDate:
          case DataType::kString:
            col.AppendInt32(static_cast<int32_t>(key[g]));
            break;
          case DataType::kInt64:
            col.AppendInt64(key[g]);
            break;
          case DataType::kFloat64:
            col.AppendDouble(Float64FromGroupKey(key[g]));
            break;
        }
      }
      GPL_RETURN_NOT_OK(out.AddColumn(group_by_[g].name, std::move(col)));
    }
    if (phase_ == AggregatePhase::kPartial) return FinishPartial(std::move(out));
    // Aggregate columns.
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      if (spec.func == AggSpec::kCount) {
        Column col(DataType::kInt64);
        for (const auto& [key, acc] : groups_) col.AppendInt64(acc.counts[a]);
        GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
      } else {
        Column col(DataType::kFloat64);
        for (const auto& [key, acc] : groups_) {
          double v;
          if (spec.func == AggSpec::kMin || spec.func == AggSpec::kMax) {
            v = acc.values[a];
          } else {
            v = acc.sums[a].Round();
          }
          if (spec.func == AggSpec::kAvg && acc.counts[a] > 0) {
            v /= static_cast<double>(acc.counts[a]);
          }
          col.AppendDouble(v);
        }
        GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
      }
    }
    return out;
  }

  void Reset() override {
    groups_.clear();
    group_types_.clear();
    group_dicts_.clear();
  }

 private:
  struct Accumulators {
    std::vector<ExactFloat64Sum> sums;  ///< kSum/kAvg exact state
    std::vector<double> values;         ///< kMin/kMax running value
    std::vector<int64_t> counts;
  };

  Accumulators& GroupAt(const std::vector<int64_t>& key) {
    Accumulators& acc = groups_[key];
    if (acc.counts.empty()) {
      acc.sums.resize(aggregates_.size());
      acc.values.assign(aggregates_.size(), 0.0);
      acc.counts.assign(aggregates_.size(), 0);
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (aggregates_[a].func == AggSpec::kMin) {
          acc.values[a] = std::numeric_limits<double>::infinity();
        } else if (aggregates_[a].func == AggSpec::kMax) {
          acc.values[a] = -std::numeric_limits<double>::infinity();
        }
      }
    }
    return acc;
  }

  // Appends the per-aggregate state columns to the group columns already in
  // `out`, producing the partial wire format.
  Result<Table> FinishPartial(Table out) {
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggSpec& spec = aggregates_[a];
      if (spec.func == AggSpec::kMin || spec.func == AggSpec::kMax) {
        // No count column: min/max combine by value alone, and Finish never
        // consults a count for them — shipping one would be pure gather
        // traffic.
        Column val(DataType::kFloat64);
        for (const auto& [key, acc] : groups_) val.AppendDouble(acc.values[a]);
        GPL_RETURN_NOT_OK(out.AddColumn(PartialValueName(a), std::move(val)));
        continue;
      }
      Column counts(DataType::kInt64);
      for (const auto& [key, acc] : groups_) counts.AppendInt64(acc.counts[a]);
      GPL_RETURN_NOT_OK(out.AddColumn(PartialCountName(a), std::move(counts)));
      if (spec.func != AggSpec::kCount) {
        std::vector<ExactFloat64Sum::Canonical> canon;
        canon.reserve(groups_.size());
        for (const auto& [key, acc] : groups_) {
          canon.push_back(acc.sums[a].ToCanonical());
        }
        Column meta(DataType::kInt64);
        for (const auto& c : canon) meta.AppendInt64(EncodeSumMeta(c));
        GPL_RETURN_NOT_OK(out.AddColumn(PartialMetaName(a), std::move(meta)));
        for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
          Column digit(DataType::kInt64);
          for (const auto& c : canon) {
            digit.AppendInt64(
                static_cast<int64_t>(c.digits[static_cast<size_t>(j)]));
          }
          GPL_RETURN_NOT_OK(
              out.AddColumn(PartialDigitName(a, j), std::move(digit)));
        }
      }
    }
    return out;
  }

  std::vector<ProjectedColumn> group_by_;
  std::vector<AggSpec> aggregates_;
  AggregatePhase phase_;
  // std::map gives deterministic (sorted) group order.
  std::map<std::vector<int64_t>, Accumulators> groups_;
  std::vector<DataType> group_types_;
  std::vector<std::shared_ptr<Dictionary>> group_dicts_;
};

class SortKernel : public Kernel {
 public:
  explicit SortKernel(std::vector<SortKey> keys) : keys_(std::move(keys)) {
    timing_ = SortTiming();
  }

  Result<RowBatch> ProcessBatch(const RowBatch& input) override {
    pending_.push_back(input);
    return RowBatch();
  }

  Result<Table> Finish() override {
    if (pending_.empty()) return Table();
    // The sort is a blocking consumer: its input materializes here, once.
    GPL_ASSIGN_OR_RETURN(const Table accumulated,
                         RowBatch::Concatenate(pending_));
    const int64_t n = accumulated.num_rows();
    std::vector<int64_t> indices(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;

    std::vector<const Column*> cols;
    for (const SortKey& k : keys_) {
      cols.push_back(&accumulated.GetColumn(k.column));
    }
    std::stable_sort(indices.begin(), indices.end(),
                     [&](int64_t a, int64_t b) {
                       for (size_t k = 0; k < keys_.size(); ++k) {
                         const Column& c = *cols[k];
                         int cmp = 0;
                         if (c.type() == DataType::kString) {
                           cmp = c.StringAt(a).compare(c.StringAt(b));
                         } else if (c.type() == DataType::kFloat64) {
                           const double va = c.DoubleAt(a), vb = c.DoubleAt(b);
                           cmp = va < vb ? -1 : (va > vb ? 1 : 0);
                         } else {
                           const int64_t va = c.AsInt64(a), vb = c.AsInt64(b);
                           cmp = va < vb ? -1 : (va > vb ? 1 : 0);
                         }
                         if (cmp != 0) {
                           return keys_[k].descending ? cmp > 0 : cmp < 0;
                         }
                       }
                       return a < b;
                     });
    return accumulated.Gather(indices);
  }

  void Reset() override { pending_.clear(); }

 private:
  std::vector<SortKey> keys_;
  std::vector<RowBatch> pending_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

KernelPtr MakeFilterKernel(ExprPtr predicate) {
  return std::make_shared<FilterKernel>(std::move(predicate));
}

KernelPtr MakeProjectKernel(std::vector<ProjectedColumn> columns) {
  return std::make_shared<ProjectKernel>(std::move(columns));
}

KernelPtr MakeHashBuildKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state) {
  return std::make_shared<HashBuildKernel>(std::move(key_exprs), std::move(state));
}

KernelPtr MakeHashProbeKernel(std::vector<ExprPtr> key_exprs,
                              std::shared_ptr<HashJoinState> state,
                              std::vector<std::string> build_payload) {
  return std::make_shared<HashProbeKernel>(std::move(key_exprs), std::move(state),
                                           std::move(build_payload));
}

KernelPtr MakeAggregateKernel(std::vector<ProjectedColumn> group_by,
                              std::vector<AggSpec> aggregates,
                              AggregatePhase phase) {
  return std::make_shared<AggregateKernel>(std::move(group_by),
                                           std::move(aggregates), phase);
}

std::vector<std::string> PartialAggregateColumns(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates) {
  std::vector<std::string> out;
  for (const ProjectedColumn& g : group_by) out.push_back(g.name);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    switch (aggregates[a].func) {
      case AggSpec::kSum:
      case AggSpec::kAvg:
        out.push_back(PartialCountName(a));
        out.push_back(PartialMetaName(a));
        for (int j = 0; j < ExactFloat64Sum::kDigits; ++j) {
          out.push_back(PartialDigitName(a, j));
        }
        break;
      case AggSpec::kCount:
        out.push_back(PartialCountName(a));
        break;
      case AggSpec::kMin:
      case AggSpec::kMax:
        // Value only — min/max partials carry no count column.
        out.push_back(PartialValueName(a));
        break;
    }
  }
  return out;
}

Result<Table> CombinePartialAggregates(
    const std::vector<ProjectedColumn>& group_by,
    const std::vector<AggSpec>& aggregates,
    const std::vector<Table>& partials) {
  AggregateKernel combiner(group_by, aggregates, AggregatePhase::kComplete);
  // The first partial ingested fixes the group columns' types. A shard whose
  // aggregate saw no tiles emits int64 fallback group columns, so partials
  // with rows go first; empty ones only supply a schema when all are empty.
  // The merge itself is exact and order-independent.
  for (const bool with_rows : {true, false}) {
    for (const Table& partial : partials) {
      if ((partial.num_rows() > 0) != with_rows) continue;
      GPL_RETURN_NOT_OK(combiner.IngestPartial(partial));
    }
  }
  return combiner.Finish();
}

KernelPtr MakeSortKernel(std::vector<SortKey> keys) {
  return std::make_shared<SortKernel>(std::move(keys));
}

// ---------------------------------------------------------------------------
// KBE-only primitives
// ---------------------------------------------------------------------------

Column ComputeFlags(const Table& input, const ExprPtr& predicate) {
  return EvaluateMorsels(*predicate, RowBatch(input));
}

Column PrefixSum(const Column& flags, int64_t* total) {
  const int64_t n = flags.size();
  Column out(DataType::kInt32);
  std::vector<int32_t>& data = out.data32();
  data.resize(static_cast<size_t>(n));
  if (CurrentHostParallelism() <= 1 || n < 2 * kMorselRows) {
    int32_t running = 0;
    for (int64_t i = 0; i < n; ++i) {
      data[static_cast<size_t>(i)] = running;
      running += flags.Int32At(i) != 0 ? 1 : 0;
    }
    *total = running;
    return out;
  }
  // Scan-then-propagate over fixed morsel boundaries: per-morsel flag counts,
  // an exclusive scan of the counts, then a parallel fill seeded with each
  // morsel's base. Integer arithmetic — exactly the serial running sum.
  const int64_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<int32_t> counts(static_cast<size_t>(num_morsels), 0);
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    int32_t count = 0;
    for (int64_t i = b; i < e; ++i) count += flags.Int32At(i) != 0 ? 1 : 0;
    counts[static_cast<size_t>(b / kMorselRows)] = count;
  });
  std::vector<int32_t> bases(static_cast<size_t>(num_morsels) + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    bases[static_cast<size_t>(m) + 1] =
        bases[static_cast<size_t>(m)] + counts[static_cast<size_t>(m)];
  }
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    int32_t running = bases[static_cast<size_t>(b / kMorselRows)];
    for (int64_t i = b; i < e; ++i) {
      data[static_cast<size_t>(i)] = running;
      running += flags.Int32At(i) != 0 ? 1 : 0;
    }
  });
  *total = bases[static_cast<size_t>(num_morsels)];
  return out;
}

std::vector<int64_t> FlaggedRows(const Column& flags) {
  const int64_t n = flags.size();
  if (CurrentHostParallelism() <= 1 || n < 2 * kMorselRows) {
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < n; ++i) {
      if (flags.Int32At(i) != 0) indices.push_back(i);
    }
    return indices;
  }
  const int64_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    std::vector<int64_t>& part = parts[static_cast<size_t>(b / kMorselRows)];
    for (int64_t i = b; i < e; ++i) {
      if (flags.Int32At(i) != 0) part.push_back(i);
    }
  });
  size_t total_indices = 0;
  for (const auto& part : parts) total_indices += part.size();
  std::vector<int64_t> indices;
  indices.reserve(total_indices);
  for (const auto& part : parts) {
    indices.insert(indices.end(), part.begin(), part.end());
  }
  return indices;
}

Table ScatterRows(const Table& input, const Column& flags, const Column& offsets) {
  GPL_CHECK(offsets.size() == flags.size());
  // offsets[i] is the output slot; gathering the selected rows in input
  // order reproduces the scatter result.
  return input.Gather(FlaggedRows(flags));
}

// ---------------------------------------------------------------------------
// Timing descriptors
// ---------------------------------------------------------------------------

sim::KernelTimingDesc FilterTiming(double predicate_cost) {
  sim::KernelTimingDesc d;
  d.name = "k_map";
  d.compute_inst_per_row = 10.0 + 2.0 * predicate_cost;
  d.mem_inst_per_row = 2.0;
  d.private_bytes_per_item = 48;
  d.local_bytes_per_item = 0;
  return d;
}

sim::KernelTimingDesc ProjectTiming(double expr_cost, int num_outputs) {
  sim::KernelTimingDesc d;
  d.name = "k_project";
  d.compute_inst_per_row = 8.0 + 2.0 * expr_cost;
  d.mem_inst_per_row = 1.0 + 0.5 * num_outputs;
  d.private_bytes_per_item = 64;
  return d;
}

sim::KernelTimingDesc PrefixSumTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_prefix_sum";
  d.compute_inst_per_row = 24.0;
  d.mem_inst_per_row = 3.0;
  d.private_bytes_per_item = 32;
  d.local_bytes_per_item = 8;  // local-memory scan tree
  d.blocking = true;
  return d;
}

sim::KernelTimingDesc ScatterTiming(int num_columns) {
  sim::KernelTimingDesc d;
  d.name = "k_scatter";
  d.compute_inst_per_row = 8.0;
  d.mem_inst_per_row = 1.5 + 0.5 * num_columns;
  d.private_bytes_per_item = 32;
  d.blocking = true;  // writes the compacted result to global memory
  return d;
}

sim::KernelTimingDesc HashBuildTiming(int64_t hash_table_bytes) {
  sim::KernelTimingDesc d;
  d.name = "k_hash_build";
  d.compute_inst_per_row = 36.0;
  d.mem_inst_per_row = 4.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 4;
  d.blocking = true;  // barrier after build (Section 3.2)
  d.random_access_fraction = 0.7;
  d.random_working_set_bytes = hash_table_bytes;
  return d;
}

sim::KernelTimingDesc HashProbeTiming(int64_t hash_table_bytes) {
  sim::KernelTimingDesc d;
  d.name = "k_hash_probe";
  d.compute_inst_per_row = 40.0;
  d.mem_inst_per_row = 5.0;
  d.private_bytes_per_item = 64;
  d.random_access_fraction = 0.5;
  d.random_working_set_bytes = hash_table_bytes;
  return d;
}

sim::KernelTimingDesc AggregateTiming(double expr_cost, int num_aggregates) {
  sim::KernelTimingDesc d;
  d.name = "k_reduce";
  d.compute_inst_per_row = 18.0 + 2.0 * expr_cost + 4.0 * num_aggregates;
  d.mem_inst_per_row = 2.0;
  d.private_bytes_per_item = 96;
  d.local_bytes_per_item = 16;  // local partials
  d.random_access_fraction = 0.2;
  d.random_working_set_bytes = 4096;
  return d;
}

sim::KernelTimingDesc ScanAggregateTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_scan_reduce";
  d.compute_inst_per_row = 30.0;
  d.mem_inst_per_row = 4.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 32;
  d.blocking = true;  // KBE aggregation materializes the scan array
  return d;
}

sim::KernelTimingDesc SortTiming() {
  sim::KernelTimingDesc d;
  d.name = "k_sort";
  d.compute_inst_per_row = 64.0;
  d.mem_inst_per_row = 8.0;
  d.private_bytes_per_item = 64;
  d.local_bytes_per_item = 32;
  d.blocking = true;
  return d;
}

}  // namespace gpl

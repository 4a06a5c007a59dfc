#include "ref/reference_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"

namespace gpl {
namespace ref {

namespace {

std::vector<int64_t> PackedKeys(const Table& input,
                                const std::vector<ExprPtr>& key_exprs) {
  GPL_CHECK(!key_exprs.empty() && key_exprs.size() <= 2);
  Column k0 = key_exprs[0]->Evaluate(input);
  const int64_t n = k0.size();
  std::vector<int64_t> keys(static_cast<size_t>(n));
  if (key_exprs.size() == 1) {
    for (int64_t i = 0; i < n; ++i) keys[static_cast<size_t>(i)] = k0.AsInt64(i);
  } else {
    Column k1 = key_exprs[1]->Evaluate(input);
    for (int64_t i = 0; i < n; ++i) {
      keys[static_cast<size_t>(i)] =
          (k0.AsInt64(i) << 32) ^ (k1.AsInt64(i) & 0xffffffffLL);
    }
  }
  return keys;
}

Result<Table> Exec(const tpch::Database& db, const PhysicalOp& op) {
  switch (op.kind) {
    case PhysicalOp::Kind::kScan: {
      const Table* base = db.ByName(op.table);
      if (base == nullptr) return Status::NotFound("unknown table: " + op.table);
      Table view(op.table);
      for (const std::string& col : op.columns) {
        const std::string name = op.alias.empty() ? col : op.alias + "_" + col;
        GPL_RETURN_NOT_OK(view.AddColumn(name, base->GetColumn(col)));
      }
      return view;
    }

    case PhysicalOp::Kind::kFilter: {
      GPL_ASSIGN_OR_RETURN(Table input, Exec(db, *op.child));
      Column flags = op.predicate->Evaluate(input);
      std::vector<int64_t> keep;
      for (int64_t i = 0; i < flags.size(); ++i) {
        if (flags.Int32At(i) != 0) keep.push_back(i);
      }
      return input.Gather(keep);
    }

    case PhysicalOp::Kind::kProject: {
      GPL_ASSIGN_OR_RETURN(Table input, Exec(db, *op.child));
      Table out(input.name());
      for (const ProjectedColumn& p : op.projections) {
        GPL_RETURN_NOT_OK(out.AddColumn(p.name, p.expr->Evaluate(input)));
      }
      return out;
    }

    case PhysicalOp::Kind::kHashJoin: {
      GPL_ASSIGN_OR_RETURN(Table build, Exec(db, *op.build_child));
      GPL_ASSIGN_OR_RETURN(Table probe, Exec(db, *op.child));
      const std::vector<int64_t> build_keys = PackedKeys(build, op.build_keys);
      const std::vector<int64_t> probe_keys = PackedKeys(probe, op.probe_keys);

      std::unordered_multimap<int64_t, int64_t> index;
      index.reserve(build_keys.size());
      for (size_t i = 0; i < build_keys.size(); ++i) {
        index.emplace(build_keys[i], static_cast<int64_t>(i));
      }

      std::vector<int64_t> probe_idx, build_idx;
      for (size_t i = 0; i < probe_keys.size(); ++i) {
        auto [lo, hi] = index.equal_range(probe_keys[i]);
        // Collect matches in build order for determinism.
        std::vector<int64_t> matches;
        for (auto it = lo; it != hi; ++it) matches.push_back(it->second);
        std::sort(matches.begin(), matches.end());
        for (int64_t b : matches) {
          probe_idx.push_back(static_cast<int64_t>(i));
          build_idx.push_back(b);
        }
      }
      Table out = probe.Gather(probe_idx);
      for (const std::string& name : op.build_payload) {
        GPL_RETURN_NOT_OK(
            out.AddColumn(name, build.GetColumn(name).Gather(build_idx)));
      }
      return out;
    }

    case PhysicalOp::Kind::kAggregate: {
      GPL_ASSIGN_OR_RETURN(Table input, Exec(db, *op.child));
      const int64_t n = input.num_rows();

      std::vector<Column> group_cols;
      for (const ProjectedColumn& g : op.group_by) {
        group_cols.push_back(g.expr->Evaluate(input));
      }
      std::vector<Column> agg_cols;
      for (const AggSpec& a : op.aggregates) {
        agg_cols.push_back(a.func == AggSpec::kCount || a.arg == nullptr
                               ? Column(DataType::kInt64)
                               : a.arg->Evaluate(input));
      }

      struct Acc {
        std::vector<double> sums;
        std::vector<double> mins;
        std::vector<double> maxs;
        std::vector<int64_t> counts;
      };
      std::map<std::vector<int64_t>, Acc> groups;
      std::vector<int64_t> key(op.group_by.size());
      for (int64_t i = 0; i < n; ++i) {
        for (size_t g = 0; g < group_cols.size(); ++g) {
          const Column& c = group_cols[g];
          key[g] = c.type() == DataType::kFloat64
                       ? Float64GroupKey(c.DoubleAt(i))
                       : c.AsInt64(i);
        }
        Acc& acc = groups[key];
        if (acc.sums.empty()) {
          acc.sums.assign(op.aggregates.size(), 0.0);
          acc.mins.assign(op.aggregates.size(),
                          std::numeric_limits<double>::infinity());
          acc.maxs.assign(op.aggregates.size(),
                          -std::numeric_limits<double>::infinity());
          acc.counts.assign(op.aggregates.size(), 0);
        }
        for (size_t a = 0; a < op.aggregates.size(); ++a) {
          if (op.aggregates[a].func != AggSpec::kCount) {
            const double v = agg_cols[a].AsDouble(i);
            acc.sums[a] += v;
            acc.mins[a] = std::min(acc.mins[a], v);
            acc.maxs[a] = std::max(acc.maxs[a], v);
          }
          acc.counts[a] += 1;
        }
      }

      Table out("aggregate");
      for (size_t g = 0; g < op.group_by.size(); ++g) {
        // Infer type and dictionary by evaluating on the (possibly empty)
        // input.
        const DataType type =
            n > 0 ? group_cols[g].type()
                  : op.group_by[g].expr->OutputType(input);
        Column col(type, n > 0 ? group_cols[g].dictionary() : nullptr);
        for (const auto& [k, acc] : groups) {
          switch (type) {
            case DataType::kInt32:
            case DataType::kDate:
            case DataType::kString:
              col.AppendInt32(static_cast<int32_t>(k[g]));
              break;
            case DataType::kInt64:
              col.AppendInt64(k[g]);
              break;
            case DataType::kFloat64:
              col.AppendDouble(Float64FromGroupKey(k[g]));
              break;
          }
        }
        GPL_RETURN_NOT_OK(out.AddColumn(op.group_by[g].name, std::move(col)));
      }
      for (size_t a = 0; a < op.aggregates.size(); ++a) {
        const AggSpec& spec = op.aggregates[a];
        if (spec.func == AggSpec::kCount) {
          Column col(DataType::kInt64);
          for (const auto& [k, acc] : groups) col.AppendInt64(acc.counts[a]);
          GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
        } else {
          Column col(DataType::kFloat64);
          for (const auto& [k, acc] : groups) {
            double v = 0.0;
            switch (spec.func) {
              case AggSpec::kSum:
                v = acc.sums[a];
                break;
              case AggSpec::kAvg:
                v = acc.counts[a] > 0
                        ? acc.sums[a] / static_cast<double>(acc.counts[a])
                        : 0.0;
                break;
              case AggSpec::kMin:
                v = acc.mins[a];
                break;
              case AggSpec::kMax:
                v = acc.maxs[a];
                break;
              case AggSpec::kCount:
                break;
            }
            col.AppendDouble(v);
          }
          GPL_RETURN_NOT_OK(out.AddColumn(spec.output_name, std::move(col)));
        }
      }
      return out;
    }

    case PhysicalOp::Kind::kExchange:
      // Data-motion annotation; a no-op for the single-address-space oracle.
      return Exec(db, *op.child);

    case PhysicalOp::Kind::kSort: {
      GPL_ASSIGN_OR_RETURN(Table input, Exec(db, *op.child));
      const int64_t n = input.num_rows();
      std::vector<int64_t> indices(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
      std::stable_sort(
          indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
            for (const SortKey& k : op.sort_keys) {
              const Column& c = input.GetColumn(k.column);
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
              if (cmp != 0) return k.descending ? cmp > 0 : cmp < 0;
            }
            return a < b;
          });
      return input.Gather(indices);
    }
  }
  return Status::Internal("unknown physical operator kind");
}

}  // namespace

Result<Table> ExecutePlan(const tpch::Database& db, const PhysicalOpPtr& plan) {
  GPL_CHECK(plan != nullptr);
  return Exec(db, *plan);
}

bool TablesEqual(const Table& a, const Table& b, std::string* message) {
  std::ostringstream why;
  auto fail = [&](const std::string& text) {
    if (message != nullptr) *message = text;
    return false;
  };
  if (a.num_columns() != b.num_columns()) {
    return fail("column count differs: " + std::to_string(a.num_columns()) +
                " vs " + std::to_string(b.num_columns()));
  }
  if (a.num_rows() != b.num_rows()) {
    return fail("row count differs: " + std::to_string(a.num_rows()) + " vs " +
                std::to_string(b.num_rows()));
  }
  for (int64_t c = 0; c < a.num_columns(); ++c) {
    if (a.ColumnNameAt(c) != b.ColumnNameAt(c)) {
      return fail("column name differs at " + std::to_string(c) + ": " +
                  a.ColumnNameAt(c) + " vs " + b.ColumnNameAt(c));
    }
    const Column& ca = a.ColumnAt(c);
    const Column& cb = b.ColumnAt(c);
    if (ca.type() != cb.type()) {
      return fail("column type differs for " + a.ColumnNameAt(c));
    }
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      bool equal = true;
      if (ca.type() == DataType::kFloat64) {
        const double va = ca.DoubleAt(r), vb = cb.DoubleAt(r);
        const double scale = std::max({std::abs(va), std::abs(vb), 1.0});
        equal = std::abs(va - vb) <= 1e-6 * scale;
      } else if (ca.type() == DataType::kString) {
        equal = ca.StringAt(r) == cb.StringAt(r);
      } else {
        equal = ca.AsInt64(r) == cb.AsInt64(r);
      }
      if (!equal) {
        why << "value differs at row " << r << ", column " << a.ColumnNameAt(c);
        return fail(why.str());
      }
    }
  }
  return true;
}

}  // namespace ref
}  // namespace gpl

#include "exec/morsel.h"

#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gpl {

namespace {

/// Parallel decomposition pays off only when there are at least two morsels
/// and the scope allows more than one thread.
bool RunSerial(int64_t rows) {
  return CurrentHostParallelism() <= 1 || rows < 2 * kMorselRows;
}

int64_t NumMorsels(int64_t rows) {
  return (rows + kMorselRows - 1) / kMorselRows;
}

/// The columns of `input` that `exprs` read, sharing their buffers (O(1) per
/// column), so that a morsel slice copies only those. Keeps the first column
/// when none is read, so the row count survives.
Table NarrowTo(const Table& input, const std::vector<const Expr*>& exprs) {
  std::vector<std::string> refs;
  for (const Expr* expr : exprs) expr->CollectColumnRefs(&refs);
  Table narrow(input.name());
  for (const std::string& name : refs) {
    if (!narrow.HasColumn(name)) {
      GPL_CHECK_OK(narrow.AddColumn(name, input.GetColumn(name)));
    }
  }
  if (narrow.num_columns() == 0 && input.num_columns() > 0) {
    GPL_CHECK_OK(narrow.AddColumn(input.ColumnNameAt(0), input.ColumnAt(0)));
  }
  return narrow;
}

}  // namespace

Column EvaluateMorsels(const Expr& expr, const Table& input) {
  const int64_t n = input.num_rows();
  // A bare column reference shares the input's buffer and computes nothing —
  // slicing and re-concatenating it would only add copies.
  std::string column_name;
  if (RunSerial(n) || expr.IsColumnRef(&column_name)) {
    return expr.Evaluate(input);
  }
  const int64_t num_morsels = NumMorsels(n);
  const Table narrow = NarrowTo(input, {&expr});
  std::vector<std::optional<Column>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    parts[static_cast<size_t>(b / kMorselRows)] =
        expr.Evaluate(narrow.Slice(b, e - b));
  });
  Column out = std::move(*parts[0]);
  out.Reserve(n);
  for (int64_t m = 1; m < num_morsels; ++m) {
    GPL_CHECK_OK(out.AppendColumn(*parts[static_cast<size_t>(m)]));
  }
  return out;
}

std::vector<int64_t> SelectIndices(const Expr& predicate, const Table& input) {
  const int64_t n = input.num_rows();
  if (RunSerial(n)) {
    const Column flags = predicate.Evaluate(input);
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < n; ++i) {
      if (flags.Int32At(i) != 0) indices.push_back(i);
    }
    return indices;
  }
  const int64_t num_morsels = NumMorsels(n);
  const Table narrow = NarrowTo(input, {&predicate});
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    const Column flags = predicate.Evaluate(narrow.Slice(b, e - b));
    std::vector<int64_t>& out = parts[static_cast<size_t>(b / kMorselRows)];
    const int64_t len = e - b;
    for (int64_t i = 0; i < len; ++i) {
      if (flags.Int32At(i) != 0) out.push_back(b + i);
    }
  });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<int64_t> indices;
  indices.reserve(total);
  for (const auto& part : parts) {
    indices.insert(indices.end(), part.begin(), part.end());
  }
  return indices;
}

std::vector<int64_t> EvaluateJoinKeys(const Table& input,
                                      const std::vector<ExprPtr>& key_exprs) {
  GPL_CHECK(!key_exprs.empty() && key_exprs.size() <= 2)
      << "joins support one or two key expressions";
  const int64_t n = input.num_rows();
  std::vector<int64_t> keys(static_cast<size_t>(n));
  // Keys read as AsInt64 does (int32 widens, float64 truncates); two keys
  // pack their low 32 bits each.
  const auto fill = [&](const Table& slice, int64_t base) {
    const Column k0 = key_exprs[0]->Evaluate(slice);
    const size_t len = static_cast<size_t>(k0.size());
    int64_t* out = keys.data() + base;
    if (key_exprs.size() == 1) {
      VisitValues(k0, [&](const auto* v0) {
        for (size_t i = 0; i < len; ++i) out[i] = static_cast<int64_t>(v0[i]);
      });
      return;
    }
    const Column k1 = key_exprs[1]->Evaluate(slice);
    GPL_CHECK(static_cast<size_t>(k1.size()) == len);
    VisitValues(k0, [&](const auto* v0) {
      VisitValues(k1, [&](const auto* v1) {
        for (size_t i = 0; i < len; ++i) {
          out[i] = JoinHashTable::PackKeys(
              static_cast<int32_t>(static_cast<int64_t>(v0[i])),
              static_cast<int32_t>(static_cast<int64_t>(v1[i])));
        }
      });
    });
  };
  if (RunSerial(n)) {
    fill(input, 0);
    return keys;
  }
  std::vector<const Expr*> exprs;
  for (const ExprPtr& expr : key_exprs) exprs.push_back(expr.get());
  const Table narrow = NarrowTo(input, exprs);
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    fill(narrow.Slice(b, e - b), b);
  });
  return keys;
}

void ProbeAll(const JoinHashTable& table, const std::vector<int64_t>& keys,
              std::vector<int64_t>* probe_idx,
              std::vector<int64_t>* build_idx) {
  const int64_t n = static_cast<int64_t>(keys.size());
  if (RunSerial(n)) {
    table.ProbeBatch(keys.data(), n, 0, probe_idx, build_idx);
    return;
  }
  const int64_t num_morsels = NumMorsels(n);
  struct MatchPart {
    std::vector<int64_t> probe;
    std::vector<int64_t> build;
  };
  std::vector<MatchPart> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    MatchPart& part = parts[static_cast<size_t>(b / kMorselRows)];
    table.ProbeBatch(keys.data() + b, e - b, b, &part.probe, &part.build);
  });
  size_t total = 0;
  for (const MatchPart& part : parts) total += part.probe.size();
  probe_idx->reserve(probe_idx->size() + total);
  build_idx->reserve(build_idx->size() + total);
  for (const MatchPart& part : parts) {
    probe_idx->insert(probe_idx->end(), part.probe.begin(), part.probe.end());
    build_idx->insert(build_idx->end(), part.build.begin(), part.build.end());
  }
}

}  // namespace gpl

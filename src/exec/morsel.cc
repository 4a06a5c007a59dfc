#include "exec/morsel.h"

#include <algorithm>
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

}  // namespace

Column EvaluateMorsels(const Expr& expr, const RowBatch& input) {
  const int64_t n = input.num_rows();
  const std::vector<std::string> reads = input.ColumnsRead({&expr});
  // A bare column reference computes nothing: gather it whole rather than
  // slicing it into morsels and concatenating them again.
  std::string column_name;
  if (RunSerial(n) || expr.IsColumnRef(&column_name)) {
    return expr.Evaluate(input.Gather(reads));
  }
  const int64_t num_morsels = NumMorsels(n);
  std::vector<std::optional<Column>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    parts[static_cast<size_t>(b / kMorselRows)] =
        expr.Evaluate(input.GatherRows(reads, b, e - b));
  });
  Column out = std::move(*parts[0]);
  out.Reserve(n);
  for (int64_t m = 1; m < num_morsels; ++m) {
    GPL_CHECK_OK(out.AppendColumn(*parts[static_cast<size_t>(m)]));
  }
  return out;
}

std::vector<int64_t> SelectIndices(const Expr& predicate,
                                   const RowBatch& input) {
  const int64_t n = input.num_rows();
  const std::vector<std::string> reads = input.ColumnsRead({&predicate});
  if (RunSerial(n)) {
    const Column flags = predicate.Evaluate(input.Gather(reads));
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < n; ++i) {
      if (flags.Int32At(i) != 0) indices.push_back(i);
    }
    return indices;
  }
  const int64_t num_morsels = NumMorsels(n);
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    const Column flags = predicate.Evaluate(input.GatherRows(reads, b, e - b));
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

std::vector<int64_t> EvaluateJoinKeys(const RowBatch& input,
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
  std::vector<const Expr*> exprs;
  for (const ExprPtr& expr : key_exprs) exprs.push_back(expr.get());
  const std::vector<std::string> reads = input.ColumnsRead(exprs);
  if (RunSerial(n)) {
    fill(input.Gather(reads), 0);
    return keys;
  }
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    fill(input.GatherRows(reads, b, e - b), b);
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
  // Write the parts through at their prefix offsets, one morsel per task:
  // the pairs land exactly where the serial loop would append them.
  std::vector<size_t> offsets(parts.size() + 1, probe_idx->size());
  for (size_t m = 0; m < parts.size(); ++m) {
    offsets[m + 1] = offsets[m] + parts[m].probe.size();
  }
  probe_idx->resize(offsets.back());
  build_idx->resize(offsets.back());
  int64_t* probe_out = probe_idx->data();
  int64_t* build_out = build_idx->data();
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t) {
    const size_t m = static_cast<size_t>(b / kMorselRows);
    const MatchPart& part = parts[m];
    std::copy(part.probe.begin(), part.probe.end(), probe_out + offsets[m]);
    std::copy(part.build.begin(), part.build.end(), build_out + offsets[m]);
  });
}

}  // namespace gpl

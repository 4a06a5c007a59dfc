#include "exec/row_batch.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gpl {

namespace {

bool RunSerial(int64_t rows) {
  return CurrentHostParallelism() <= 1 || rows < 2 * kMorselRows;
}

/// fn(i) for every i in [0, n), morsel-parallel. Each i writes only its own
/// output slot, so the result is the serial loop's at any thread count.
template <typename Fn>
void ForEachRow(int64_t n, Fn&& fn) {
  const auto range = [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) fn(i);
  };
  if (RunSerial(n)) {
    range(0, n);
  } else {
    ParallelFor(0, n, kMorselRows, range);
  }
}

/// rows[i] == i for every row of an n-row batch.
bool IsIdentity(const std::vector<int64_t>& rows, int64_t n) {
  if (static_cast<int64_t>(rows.size()) != n) return false;
  for (int64_t i = 0; i < n; ++i) {
    if (rows[static_cast<size_t>(i)] != i) return false;
  }
  return true;
}

/// fn(T{}) with T the physical value type of `type`.
template <typename Fn>
void DispatchType(DataType type, Fn&& fn) {
  switch (type) {
    case DataType::kInt64:
      fn(int64_t{});
      return;
    case DataType::kFloat64:
      fn(double{});
      return;
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      break;
  }
  fn(int32_t{});
}

template <typename T>
std::vector<T>& MutableBuffer(Column* column) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return column->data64();
  } else if constexpr (std::is_same_v<T, double>) {
    return column->dataf();
  } else {
    return column->data32();
  }
}

template <typename T>
const T* Values(const Column& column) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return column.data64().data();
  } else if constexpr (std::is_same_v<T, double>) {
    return column.dataf().data();
  } else {
    return column.data32().data();
  }
}

}  // namespace

RowBatch::RowBatch(Table table) {
  const int64_t rows = table.num_rows();
  *this = Range(std::move(table), 0, rows);
}

RowBatch RowBatch::Range(Table table, int64_t begin, int64_t len) {
  GPL_CHECK(begin >= 0 && len >= 0 && begin + len <= table.num_rows())
      << "range out of bounds: [" << begin << ", " << begin + len << ") of "
      << table.num_rows();
  RowBatch batch;
  batch.name_ = table.name();
  batch.num_rows_ = len;
  if (table.num_columns() == 0) return batch;
  batch.names_ = table.column_names();
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    batch.columns_.push_back({0, c});
  }
  batch.sources_.push_back({std::move(table), nullptr, begin});
  return batch;
}

int64_t RowBatch::row_width() const {
  int64_t total = 0;
  for (const ColumnRef& ref : columns_) {
    total += TypeWidth(SourceColumn(ref).type());
  }
  return total;
}

int64_t RowBatch::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int64_t>(i);
  }
  return -1;
}

template <typename T>
void RowBatch::CopyRows(size_t i, int64_t begin, int64_t len, T* out) const {
  const ColumnRef& ref = columns_[i];
  const Source& source = sources_[ref.source];
  const T* in = Values<T>(SourceColumn(ref));
  if (source.positions == nullptr) {
    std::copy(in + source.begin + begin, in + source.begin + begin + len, out);
    return;
  }
  const int64_t* pos = source.positions->data() + begin;
  ForEachRow(len, [&](int64_t r) { out[r] = in[pos[r]]; });
}

Column RowBatch::GatherColumn(size_t i, int64_t begin, int64_t len) const {
  const ColumnRef& ref = columns_[i];
  const Source& source = sources_[ref.source];
  const Column& column = SourceColumn(ref);
  if (source.positions == nullptr) {
    // A range over its source's whole extent shares the buffer.
    return column.Slice(source.begin + begin, len);
  }
  Column out(column.type(), column.dictionary());
  DispatchType(column.type(), [&](auto tag) {
    using T = decltype(tag);
    std::vector<T>& dst = MutableBuffer<T>(&out);
    dst.resize(static_cast<size_t>(len));
    CopyRows(i, begin, len, dst.data());
  });
  return out;
}

std::vector<std::string> RowBatch::ColumnsRead(
    const std::vector<const Expr*>& exprs) const {
  std::vector<std::string> refs;
  for (const Expr* expr : exprs) expr->CollectColumnRefs(&refs);
  std::vector<std::string> names;
  for (std::string& ref : refs) {
    if (std::find(names.begin(), names.end(), ref) == names.end()) {
      names.push_back(std::move(ref));
    }
  }
  if (names.empty() && !names_.empty()) names.push_back(names_[0]);
  return names;
}

Table RowBatch::Gather(const std::vector<std::string>& names) const {
  return GatherRows(names, 0, num_rows_);
}

Table RowBatch::GatherRows(const std::vector<std::string>& names,
                           int64_t begin, int64_t len) const {
  GPL_CHECK(begin >= 0 && len >= 0 && begin + len <= num_rows_);
  Table out(name_);
  for (const std::string& name : names) {
    const int64_t i = ColumnIndex(name);
    GPL_CHECK(i >= 0) << "no such column: " << name << " in batch " << name_;
    GPL_CHECK_OK(out.AddColumn(
        name, GatherColumn(static_cast<size_t>(i), begin, len)));
  }
  return out;
}

RowBatch RowBatch::Select(const std::vector<int64_t>& rows) const {
  if (IsIdentity(rows, num_rows_)) return *this;
  RowBatch out;
  out.name_ = name_;
  out.num_rows_ = static_cast<int64_t>(rows.size());
  out.names_ = names_;
  out.columns_ = columns_;
  // Compose only the sources a column still reads, once per distinct
  // placement: sources at the same positions (or the same range start) share
  // the composed list.
  std::vector<int64_t> remap(sources_.size(), -1);
  struct Composed {
    const std::vector<int64_t>* positions;
    int64_t begin;
    std::shared_ptr<const std::vector<int64_t>> result;
  };
  std::vector<Composed> composed;
  for (ColumnRef& ref : out.columns_) {
    int64_t& slot = remap[ref.source];
    if (slot < 0) {
      const Source& source = sources_[ref.source];
      const std::vector<int64_t>* positions = source.positions.get();
      const int64_t begin = positions != nullptr ? 0 : source.begin;
      auto it = std::find_if(composed.begin(), composed.end(),
                             [&](const Composed& c) {
                               return c.positions == positions &&
                                      c.begin == begin;
                             });
      if (it == composed.end()) {
        auto result = std::make_shared<std::vector<int64_t>>(rows.size());
        int64_t* dst = result->data();
        if (positions != nullptr) {
          const int64_t* src = positions->data();
          ForEachRow(out.num_rows_, [&](int64_t i) { dst[i] = src[rows[i]]; });
        } else {
          ForEachRow(out.num_rows_,
                     [&](int64_t i) { dst[i] = begin + rows[i]; });
        }
        composed.push_back({positions, begin, std::move(result)});
        it = composed.end() - 1;
      }
      // A composed source is read through positions, so it takes no
      // computed columns: out starts its own on the next AddColumn.
      slot = static_cast<int64_t>(out.sources_.size());
      out.sources_.push_back({source.table, it->result, 0});
    }
    ref.source = static_cast<size_t>(slot);
  }
  return out;
}

RowBatch RowBatch::SameRows() const {
  RowBatch out;
  out.name_ = name_;
  out.num_rows_ = num_rows_;
  out.sources_ = sources_;
  return out;
}

Status RowBatch::AddSource(Table source, std::vector<int64_t> positions) {
  GPL_CHECK(static_cast<int64_t>(positions.size()) == num_rows_)
      << "source positions: " << positions.size() << " for " << num_rows_
      << " rows";
  for (const std::string& name : source.column_names()) {
    if (ColumnIndex(name) >= 0) {
      return Status::AlreadyExists("column already exists: " + name);
    }
  }
  const size_t index = sources_.size();
  for (int64_t c = 0; c < source.num_columns(); ++c) {
    names_.push_back(source.ColumnNameAt(c));
    columns_.push_back({index, c});
  }
  sources_.push_back(
      {std::move(source),
       std::make_shared<const std::vector<int64_t>>(std::move(positions)), 0});
  return Status::OK();
}

Status RowBatch::AddColumn(std::string name, Column column) {
  GPL_CHECK(column.size() == num_rows_)
      << "column " << name << ": " << column.size() << " rows for "
      << num_rows_;
  if (ColumnIndex(name) >= 0) {
    return Status::AlreadyExists("column already exists: " + name);
  }
  if (computed_source_ < 0) {
    computed_source_ = static_cast<int64_t>(sources_.size());
    sources_.push_back({Table(name_), nullptr, 0});
  }
  Table& computed = sources_[static_cast<size_t>(computed_source_)].table;
  columns_.push_back(
      {static_cast<size_t>(computed_source_), computed.num_columns()});
  GPL_RETURN_NOT_OK(computed.AddColumn(name, std::move(column)));
  names_.push_back(std::move(name));
  return Status::OK();
}

Status RowBatch::CarryColumn(const RowBatch& from, const std::string& name,
                             std::string as_name) {
  const int64_t i = from.ColumnIndex(name);
  GPL_CHECK(i >= 0) << "no such column: " << name << " in batch " << from.name_;
  const ColumnRef& ref = from.columns_[static_cast<size_t>(i)];
  GPL_CHECK(ref.source < sources_.size() && from.num_rows_ == num_rows_);
  if (ColumnIndex(as_name) >= 0) {
    return Status::AlreadyExists("column already exists: " + as_name);
  }
  names_.push_back(std::move(as_name));
  columns_.push_back(ref);
  return Status::OK();
}

Table RowBatch::Materialize() const {
  Table out(name_);
  for (size_t i = 0; i < names_.size(); ++i) {
    GPL_CHECK_OK(out.AddColumn(names_[i], GatherColumn(i, 0, num_rows_)));
  }
  return out;
}

Result<Table> RowBatch::Concatenate(const std::vector<RowBatch>& parts) {
  if (parts.empty()) return Table();
  if (parts.size() == 1) return parts[0].Materialize();
  const RowBatch& first = parts[0];
  int64_t total = 0;
  for (const RowBatch& part : parts) {
    if (part.names_ != first.names_) {
      return Status::InvalidArgument("Concatenate: schema mismatch in " +
                                     part.name_);
    }
    total += part.num_rows();
  }
  Table out(first.name_);
  for (size_t c = 0; c < first.names_.size(); ++c) {
    const Column& proto = first.SourceColumn(first.columns_[c]);
    for (const RowBatch& part : parts) {
      const Column& column = part.SourceColumn(part.columns_[c]);
      if (column.type() != proto.type() ||
          (proto.type() == DataType::kString &&
           column.dictionary() != proto.dictionary())) {
        return Status::InvalidArgument("Concatenate: column " +
                                       first.names_[c] + " differs in type");
      }
    }
    Column col(proto.type(), proto.dictionary());
    DispatchType(proto.type(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T>& dst = MutableBuffer<T>(&col);
      dst.resize(static_cast<size_t>(total));
      T* out_values = dst.data();
      for (const RowBatch& part : parts) {
        part.CopyRows(c, 0, part.num_rows(), out_values);
        out_values += part.num_rows();
      }
    });
    GPL_RETURN_NOT_OK(out.AddColumn(first.names_[c], std::move(col)));
  }
  return out;
}

}  // namespace gpl

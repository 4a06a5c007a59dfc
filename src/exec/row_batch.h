#ifndef GPL_EXEC_ROW_BATCH_H_
#define GPL_EXEC_ROW_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expr.h"
#include "storage/table.h"

namespace gpl {

/// The rows one stage hands the next (DESIGN.md decision 13): source tables,
/// shared O(1) through copy-on-write columns, plus per source the positions
/// of this batch's rows in it (a position list, or a contiguous range). The
/// columns keep the schema order of the table the batch stands for.
///
/// A stage gathers only the columns it reads (exec/morsel.h gathers them per
/// morsel); a filter or a probe composes positions (Select) and a probe adds
/// its build payload as a new source (AddSource), so no stage copies a
/// column it only carries. Blocking consumers and a segment's output gather
/// every column once (Materialize, Concatenate).
///
/// A batch with no columns is the "withheld" batch of an accumulating
/// kernel; byte_size() is rows x row width, the size of the table the batch
/// would materialize to.
class RowBatch {
 public:
  /// The withheld batch: no columns, no rows.
  RowBatch() = default;
  /// All rows of `table`.
  explicit RowBatch(Table table);
  /// Rows [begin, begin + len) of `table`, e.g. one tile of a segment input.
  static RowBatch Range(Table table, int64_t begin, int64_t len);

  /// Rows of the batch; 0 without columns, as for a Table.
  int64_t num_rows() const { return names_.empty() ? 0 : num_rows_; }
  int64_t num_columns() const { return static_cast<int64_t>(names_.size()); }
  /// Bytes of one row across all columns.
  int64_t row_width() const;
  /// Bytes of the materialized table: num_rows() x row_width().
  int64_t byte_size() const { return num_rows() * row_width(); }

  /// Names of the columns `exprs` read, each once; the first column when
  /// none is read, so that a gather of them keeps the row count.
  std::vector<std::string> ColumnsRead(
      const std::vector<const Expr*>& exprs) const;
  /// The named columns, gathered at this batch's rows. A column read over
  /// its source's whole extent is shared, not copied.
  Table Gather(const std::vector<std::string>& names) const;
  /// The named columns at rows [begin, begin + len) of this batch: the
  /// input of one morsel.
  Table GatherRows(const std::vector<std::string>& names, int64_t begin,
                   int64_t len) const;

  /// The batch of this batch's rows at `rows` (positions into this batch, in
  /// output order). Composes each source's positions; copies no column.
  RowBatch Select(const std::vector<int64_t>& rows) const;

  /// A batch over the same rows and sources with no columns yet: the start
  /// of a projection, which CarryColumn and AddColumn fill.
  RowBatch SameRows() const;

  /// Appends every column of `source`, read at `positions` (one per row of
  /// this batch). Fails if a column name is already present.
  Status AddSource(Table source, std::vector<int64_t> positions);
  /// Appends a computed column: one value per row of this batch.
  Status AddColumn(std::string name, Column column);
  /// Appends column `name` of `from` as `as_name`, by reference: nothing is
  /// gathered. `from` is the batch this one was made from by SameRows().
  Status CarryColumn(const RowBatch& from, const std::string& name,
                     std::string as_name);

  /// Every column gathered once.
  Table Materialize() const;
  /// The rows of `parts`, in order, materialized into one table: every
  /// column is sized once and each part gathers into its place. The parts
  /// must share a schema; the result takes the first part's name.
  static Result<Table> Concatenate(const std::vector<RowBatch>& parts);

 private:
  /// A source table and where this batch's rows sit in it: at `positions`
  /// when set, otherwise at [begin, begin + num_rows).
  struct Source {
    Table table;
    std::shared_ptr<const std::vector<int64_t>> positions;
    int64_t begin = 0;
  };
  /// Column `column` of source `source`.
  struct ColumnRef {
    size_t source = 0;
    int64_t column = 0;
  };

  int64_t ColumnIndex(const std::string& name) const;
  const Column& SourceColumn(const ColumnRef& ref) const {
    return sources_[ref.source].table.ColumnAt(ref.column);
  }
  /// Column `i` at rows [begin, begin + len) of this batch.
  Column GatherColumn(size_t i, int64_t begin, int64_t len) const;
  /// Writes those values to `out`; T is the column's physical type.
  template <typename T>
  void CopyRows(size_t i, int64_t begin, int64_t len, T* out) const;

  std::string name_;
  int64_t num_rows_ = 0;
  std::vector<Source> sources_;
  std::vector<std::string> names_;
  std::vector<ColumnRef> columns_;
  /// Source that AddColumn appends computed columns to; -1 until the first.
  int64_t computed_source_ = -1;
};

}  // namespace gpl

#endif  // GPL_EXEC_ROW_BATCH_H_

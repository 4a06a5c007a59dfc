#ifndef GPL_STORAGE_TABLE_H_
#define GPL_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace gpl {

/// A named, columnar table. All columns have the same row count. This is the
/// unit stored in (simulated) GPU global memory and the shape of every
/// intermediate result.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int64_t num_rows() const;
  int64_t num_columns() const { return static_cast<int64_t>(columns_.size()); }

  /// Total bytes of all columns as laid out in global memory.
  int64_t byte_size() const;
  /// Bytes of one row across all columns.
  int64_t row_width() const;

  /// Adds a column. All columns must end up with equal length; this is
  /// validated lazily by num_rows()/Validate().
  Status AddColumn(std::string column_name, Column column);

  bool HasColumn(const std::string& column_name) const;
  /// Index of the column, or -1 if absent.
  int64_t ColumnIndex(const std::string& column_name) const;

  /// Precondition: column exists (checked).
  const Column& GetColumn(const std::string& column_name) const;
  const Column& ColumnAt(int64_t i) const { return columns_[static_cast<size_t>(i)]; }
  Column& MutableColumnAt(int64_t i) { return columns_[static_cast<size_t>(i)]; }
  const std::string& ColumnNameAt(int64_t i) const {
    return names_[static_cast<size_t>(i)];
  }

  const std::vector<std::string>& column_names() const { return names_; }

  /// Checks that all columns have equal length.
  Status Validate() const;

  /// New table with rows [begin, begin+len) of every column.
  Table Slice(int64_t begin, int64_t len) const;

  /// New table with the rows selected by `indices` (in order), all columns.
  Table Gather(const std::vector<int64_t>& indices) const;

  /// Appends all rows of `other` (same schema required).
  Status AppendTable(const Table& other);

  /// Human-readable rendering of the first `max_rows` rows, for examples and
  /// debugging.
  std::string ToString(int64_t max_rows = 10) const;

 private:
  std::string name_;
  std::vector<std::string> names_;
  std::vector<Column> columns_;
};

}  // namespace gpl

#endif  // GPL_STORAGE_TABLE_H_

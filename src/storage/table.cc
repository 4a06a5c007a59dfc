#include "storage/table.h"

#include <cstdio>
#include <sstream>

namespace gpl {

int64_t Table::num_rows() const {
  if (columns_.empty()) return 0;
  return columns_[0].size();
}

int64_t Table::byte_size() const {
  int64_t total = 0;
  for (const Column& c : columns_) total += c.byte_size();
  return total;
}

int64_t Table::row_width() const {
  int64_t total = 0;
  for (const Column& c : columns_) total += TypeWidth(c.type());
  return total;
}

Status Table::AddColumn(std::string column_name, Column column) {
  if (HasColumn(column_name)) {
    return Status::AlreadyExists("column already exists: " + column_name);
  }
  names_.push_back(std::move(column_name));
  columns_.push_back(std::move(column));
  return Status::OK();
}

bool Table::HasColumn(const std::string& column_name) const {
  return ColumnIndex(column_name) >= 0;
}

int64_t Table::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == column_name) return static_cast<int64_t>(i);
  }
  return -1;
}

const Column& Table::GetColumn(const std::string& column_name) const {
  const int64_t idx = ColumnIndex(column_name);
  GPL_CHECK(idx >= 0) << "no such column: " << column_name << " in table " << name_;
  return columns_[static_cast<size_t>(idx)];
}

Status Table::Validate() const {
  if (columns_.empty()) return Status::OK();
  const int64_t rows = columns_[0].size();
  for (size_t i = 1; i < columns_.size(); ++i) {
    if (columns_[i].size() != rows) {
      return Status::Internal("column length mismatch in table " + name_ + ": " +
                              names_[i]);
    }
  }
  return Status::OK();
}

Table Table::Slice(int64_t begin, int64_t len) const {
  Table out(name_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    GPL_CHECK_OK(out.AddColumn(names_[i], columns_[i].Slice(begin, len)));
  }
  return out;
}

Table Table::Gather(const std::vector<int64_t>& indices) const {
  Table out(name_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    GPL_CHECK_OK(out.AddColumn(names_[i], columns_[i].Gather(indices)));
  }
  return out;
}

Status Table::AppendTable(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("AppendTable: column count mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (other.names_[i] != names_[i]) {
      return Status::InvalidArgument("AppendTable: column name mismatch: " +
                                     other.names_[i] + " vs " + names_[i]);
    }
    GPL_RETURN_NOT_OK(columns_[i].AppendColumn(other.columns_[i]));
  }
  return Status::OK();
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream out;
  out << name_ << " (" << num_rows() << " rows)\n";
  for (size_t i = 0; i < names_.size(); ++i) {
    out << (i == 0 ? "" : " | ") << names_[i];
  }
  out << "\n";
  const int64_t n = std::min(num_rows(), max_rows);
  for (int64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out << " | ";
      const Column& col = columns_[c];
      switch (col.type()) {
        case DataType::kInt32:
        case DataType::kDate:
          out << col.Int32At(r);
          break;
        case DataType::kInt64:
          out << col.Int64At(r);
          break;
        case DataType::kFloat64: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.4f", col.DoubleAt(r));
          out << buf;
          break;
        }
        case DataType::kString:
          out << col.StringAt(r);
          break;
      }
    }
    out << "\n";
  }
  if (num_rows() > n) out << "... (" << num_rows() - n << " more rows)\n";
  return out.str();
}

}  // namespace gpl

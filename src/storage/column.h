#ifndef GPL_STORAGE_COLUMN_H_
#define GPL_STORAGE_COLUMN_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace gpl {

/// A typed column of values. Storage is a contiguous vector of the physical
/// representation: int32 for kInt32/kDate/kString (dictionary codes), int64
/// for kInt64 and double for kFloat64. String columns share a Dictionary.
///
/// Buffers are copy-on-write: copying a column (or a Table of columns) shares
/// the buffer and costs O(1), and every mutating entry point (Append*,
/// Reserve, the mutable data*() accessors, AppendColumn) first detaches a
/// shared buffer into a private copy, so a mutation never shows through
/// another copy. A column that has never been written holds no buffer and
/// reads as empty. Two rules keep sharing invisible (DESIGN.md decision 11):
///  - A mutable data*() reference must not be held across a copy of its
///    column: the copy would share the buffer the reference writes into.
///    Take it after the last copy, write through it, and drop it.
///  - Threads may copy and read one column concurrently, and each thread
///    mutates only its own copy. A mutation writes in place only when no
///    other copy holds the buffer; an acquire fence orders the reads of a
///    copy another thread dropped before that write.
class Column {
 public:
  explicit Column(DataType type, std::shared_ptr<Dictionary> dict = nullptr);

  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  int64_t size() const;
  int64_t byte_size() const { return size() * TypeWidth(type_); }

  const std::shared_ptr<Dictionary>& dictionary() const { return dict_; }

  // -- Appends -------------------------------------------------------------
  // Each call re-checks ownership; bulk writers size the mutable buffer once
  // and write through it instead of appending row by row.

  void AppendInt32(int32_t v) {
    GPL_DCHECK(Is32Bit());
    Own(data32_).push_back(v);
  }
  void AppendInt64(int64_t v) {
    GPL_DCHECK(type_ == DataType::kInt64);
    Own(data64_).push_back(v);
  }
  void AppendDouble(double v) {
    GPL_DCHECK(type_ == DataType::kFloat64);
    Own(dataf_).push_back(v);
  }
  /// Appends a string value, interning it in the shared dictionary.
  void AppendString(const std::string& v) {
    GPL_DCHECK(type_ == DataType::kString);
    Own(data32_).push_back(dict_->GetOrInsert(v));
  }

  void Reserve(int64_t n);

  // -- Element access ------------------------------------------------------

  int32_t Int32At(int64_t i) const { return (*data32_)[static_cast<size_t>(i)]; }
  int64_t Int64At(int64_t i) const { return (*data64_)[static_cast<size_t>(i)]; }
  double DoubleAt(int64_t i) const { return (*dataf_)[static_cast<size_t>(i)]; }
  const std::string& StringAt(int64_t i) const {
    return dict_->GetString(Int32At(i));
  }

  /// Value at row `i` widened to double (dictionary code for strings).
  /// For cold, row-at-a-time paths; hot loops read the buffer through
  /// VisitValues below with the same conversions.
  double AsDouble(int64_t i) const;
  /// Value at row `i` widened to int64 (dictionary code for strings;
  /// truncation for float columns).
  int64_t AsInt64(int64_t i) const;

  // -- Bulk operations -----------------------------------------------------

  /// New column with the rows selected by `indices` (in that order).
  Column Gather(const std::vector<int64_t>& indices) const;

  /// New column with rows [begin, begin+len). The whole column shares this
  /// column's buffer; a partial slice owns a copy of its rows.
  Column Slice(int64_t begin, int64_t len) const;

  /// Appends all rows of `other` (must have identical type and, for strings,
  /// the same dictionary instance). An empty column takes a shared reference
  /// to `other`'s buffer instead of copying it.
  Status AppendColumn(const Column& other);

  /// Direct access to the physical buffers (for kernels). The mutable
  /// overloads detach a shared buffer first; the const overloads never copy
  /// (a buffer the column does not hold reads as an empty vector).
  std::vector<int32_t>& data32() { return Own(data32_); }
  const std::vector<int32_t>& data32() const { return View(data32_); }
  std::vector<int64_t>& data64() { return Own(data64_); }
  const std::vector<int64_t>& data64() const { return View(data64_); }
  std::vector<double>& dataf() { return Own(dataf_); }
  const std::vector<double>& dataf() const { return View(dataf_); }

 private:
  template <typename T>
  using Buffer = std::shared_ptr<std::vector<T>>;

  bool Is32Bit() const {
    return type_ == DataType::kInt32 || type_ == DataType::kDate ||
           type_ == DataType::kString;
  }

  /// The buffer, made private to this column: allocated when absent, copied
  /// when another column shares it.
  template <typename T>
  static std::vector<T>& Own(Buffer<T>& buffer) {
    if (buffer.use_count() != 1) [[unlikely]] {
      Detach(buffer);
    } else {
      // use_count() is a relaxed load. The fence pairs with the release
      // decrement of a copy another thread just dropped, so that thread's
      // reads of the buffer happen before this column writes it in place.
      // ThreadSanitizer does not model fences (GCC warns under -Wtsan).
#if !defined(__SANITIZE_THREAD__)
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
    }
    return *buffer;
  }
  template <typename T>
  static void Detach(Buffer<T>& buffer) {
    buffer = buffer == nullptr ? std::make_shared<std::vector<T>>()
                               : std::make_shared<std::vector<T>>(*buffer);
  }
  template <typename T>
  static const std::vector<T>& View(const Buffer<T>& buffer) {
    static const std::vector<T> kEmpty;
    return buffer == nullptr ? kEmpty : *buffer;
  }

  DataType type_;
  std::shared_ptr<Dictionary> dict_;
  Buffer<int32_t> data32_;
  Buffer<int64_t> data64_;
  Buffer<double> dataf_;
};

/// Calls `fn(const T* values)` with the column's physical buffer: T is
/// int32_t for kInt32/kDate/kString (dictionary codes), int64_t for kInt64
/// and double for kFloat64. Hot loops dispatch on the type once per column
/// through this and read the buffer directly; AsInt64/AsDouble stay for
/// cold, row-at-a-time paths (DESIGN.md decision 12). Every instantiation of
/// `fn` must return the same type.
template <typename Fn>
decltype(auto) VisitValues(const Column& column, Fn&& fn) {
  switch (column.type()) {
    case DataType::kInt64:
      return fn(column.data64().data());
    case DataType::kFloat64:
      return fn(column.dataf().data());
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      break;
  }
  return fn(column.data32().data());
}

}  // namespace gpl

#endif  // GPL_STORAGE_COLUMN_H_

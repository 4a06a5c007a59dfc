#include "storage/column.h"

#include "common/thread_pool.h"

namespace gpl {

Column::Column(DataType type, std::shared_ptr<Dictionary> dict)
    : type_(type), dict_(std::move(dict)) {
  if (type_ == DataType::kString && dict_ == nullptr) {
    dict_ = std::make_shared<Dictionary>();
  }
}

int64_t Column::size() const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return static_cast<int64_t>(data32().size());
    case DataType::kInt64:
      return static_cast<int64_t>(data64().size());
    case DataType::kFloat64:
      return static_cast<int64_t>(dataf().size());
  }
  return 0;
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      data32().reserve(static_cast<size_t>(n));
      break;
    case DataType::kInt64:
      data64().reserve(static_cast<size_t>(n));
      break;
    case DataType::kFloat64:
      dataf().reserve(static_cast<size_t>(n));
      break;
  }
}

double Column::AsDouble(int64_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return static_cast<double>(Int32At(i));
    case DataType::kInt64:
      return static_cast<double>(Int64At(i));
    case DataType::kFloat64:
      return DoubleAt(i);
  }
  return 0.0;
}

int64_t Column::AsInt64(int64_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return Int32At(i);
    case DataType::kInt64:
      return Int64At(i);
    case DataType::kFloat64:
      return static_cast<int64_t>(DoubleAt(i));
  }
  return 0;
}

namespace {

// out[i] = src[indices[i]]. Output position i depends only on indices[i], so
// morsel-parallel chunks write disjoint ranges and the values are trivially
// identical to the serial loop.
template <typename T>
void GatherValues(const std::vector<T>& src, const std::vector<int64_t>& indices,
                  std::vector<T>* dst) {
  const int64_t n = static_cast<int64_t>(indices.size());
  dst->resize(static_cast<size_t>(n));
  T* out = dst->data();
  const T* in = src.data();
  const int64_t* idx = indices.data();
  const auto fill = [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) out[i] = in[idx[i]];
  };
  if (CurrentHostParallelism() <= 1 || n < 2 * kMorselRows) {
    fill(0, n);
  } else {
    ParallelFor(0, n, kMorselRows, fill);
  }
}

template <typename T>
void AppendValues(const std::vector<T>& src, std::vector<T>* dst) {
  dst->insert(dst->end(), src.begin(), src.end());
}

}  // namespace

Column Column::Gather(const std::vector<int64_t>& indices) const {
  Column out(type_, dict_);
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      GatherValues(data32(), indices, &out.data32());
      break;
    case DataType::kInt64:
      GatherValues(data64(), indices, &out.data64());
      break;
    case DataType::kFloat64:
      GatherValues(dataf(), indices, &out.dataf());
      break;
  }
  return out;
}

Column Column::Slice(int64_t begin, int64_t len) const {
  GPL_CHECK(begin >= 0 && len >= 0 && begin + len <= size())
      << "slice out of range: [" << begin << ", " << begin + len << ") of " << size();
  if (begin == 0 && len == size()) return *this;
  Column out(type_, dict_);
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      out.data32().assign(data32().begin() + begin, data32().begin() + begin + len);
      break;
    case DataType::kInt64:
      out.data64().assign(data64().begin() + begin, data64().begin() + begin + len);
      break;
    case DataType::kFloat64:
      out.dataf().assign(dataf().begin() + begin, dataf().begin() + begin + len);
      break;
  }
  return out;
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::InvalidArgument("AppendColumn: mismatched types");
  }
  if (type_ == DataType::kString && other.dict_ != dict_) {
    return Status::InvalidArgument("AppendColumn: mismatched dictionaries");
  }
  if (size() == 0) {
    data32_ = other.data32_;
    data64_ = other.data64_;
    dataf_ = other.dataf_;
    return Status::OK();
  }
  if (other.size() == 0) return Status::OK();
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      AppendValues(other.data32(), &data32());
      break;
    case DataType::kInt64:
      AppendValues(other.data64(), &data64());
      break;
    case DataType::kFloat64:
      AppendValues(other.dataf(), &dataf());
      break;
  }
  return Status::OK();
}

}  // namespace gpl

#ifndef GPL_STORAGE_TYPES_H_
#define GPL_STORAGE_TYPES_H_

#include <cstdint>
#include <string>

namespace gpl {

/// Physical column types of the columnar store. Strings are always
/// dictionary-encoded (int32 codes into a Dictionary); DATE is stored as an
/// int32 day number (days since 1970-01-01), which is sufficient for the
/// TPC-H date arithmetic in the evaluated queries.
enum class DataType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kDate = 3,
  kString = 4,
};

/// Width in bytes of one value of `type` as laid out in (simulated) GPU
/// global memory.
constexpr int64_t TypeWidth(DataType type) {
  switch (type) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:  // dictionary code
      return 4;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
  }
  return 0;
}

}  // namespace gpl

#endif  // GPL_STORAGE_TYPES_H_

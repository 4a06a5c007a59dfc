#ifndef GPL_TRACE_JSON_H_
#define GPL_TRACE_JSON_H_

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gpl {
namespace trace {

/// Escapes a string for inclusion in a JSON string literal (no surrounding
/// quotes).
std::string JsonEscape(std::string_view s);

/// Formats a double as a JSON number. JSON has no inf/nan; both are clamped
/// to 0 so exported traces always parse.
std::string JsonNumber(double value);

/// Formats doubles as a JSON array of JsonNumber values.
std::string JsonNumberArray(const std::vector<double>& values);

/// Writes one JSON object's members into `*out`: the constructor opens the
/// object, each Field appends `"key":value` (comma-separated), and Close()
/// ends it. Strings are escaped, doubles go through JsonNumber, and integers
/// print exactly (a 10-digit count never turns into `%.9g`'s 1.23456789e+09).
class JsonObjectWriter {
 public:
  explicit JsonObjectWriter(std::string* out) : out_(out) { *out_ += '{'; }

  JsonObjectWriter& Field(std::string_view key, std::string_view value);
  JsonObjectWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonObjectWriter& Field(std::string_view key, double value);
  JsonObjectWriter& Field(std::string_view key, bool value);
  template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
  JsonObjectWriter& Field(std::string_view key, Int value) {
    Key(key);
    *out_ += std::to_string(value);
    return *this;
  }

  /// Starts a member whose value (an array or nested object) the caller
  /// appends to the output itself.
  void Key(std::string_view key);
  void Close() { *out_ += '}'; }

 private:
  std::string* out_;
  bool first_ = true;
};

/// Validates that `text` is a single well-formed JSON value (RFC 8259
/// grammar, no extensions). On failure returns false and, if `error` is
/// non-null, describes the first problem with its byte offset. This is the
/// "tiny parser" used by tests and the trace_smoke target; it checks
/// structure only and does not build a document tree.
bool ValidateJson(std::string_view text, std::string* error = nullptr);

}  // namespace trace
}  // namespace gpl

#endif  // GPL_TRACE_JSON_H_

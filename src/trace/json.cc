#include "trace/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace gpl {
namespace trace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string JsonNumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(values[i]);
  }
  out += ']';
  return out;
}

void JsonObjectWriter::Key(std::string_view key) {
  if (!first_) *out_ += ',';
  first_ = false;
  *out_ += '"';
  *out_ += JsonEscape(key);
  *out_ += "\":";
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key,
                                          std::string_view value) {
  Key(key);
  *out_ += '"';
  *out_ += JsonEscape(value);
  *out_ += '"';
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, double value) {
  Key(key);
  *out_ += JsonNumber(value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, bool value) {
  Key(key);
  *out_ += value ? "true" : "false";
  return *this;
}

namespace {

/// Recursive-descent structural validator over the raw bytes.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Run() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after value");
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Fail("invalid literal");
    }
    pos_ += lit.size();
    return true;
  }

  bool Value() {
    if (++depth_ > kMaxDepth) return Fail("nesting too deep");
    bool ok = false;
    if (AtEnd()) {
      ok = Fail("unexpected end of input");
    } else {
      switch (Peek()) {
        case '{':
          ok = Object();
          break;
        case '[':
          ok = Array();
          break;
        case '"':
          ok = String();
          break;
        case 't':
          ok = Literal("true");
          break;
        case 'f':
          ok = Literal("false");
          break;
        case 'n':
          ok = Literal("null");
          break;
        default:
          ok = Number();
      }
    }
    --depth_;
    return ok;
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (AtEnd() || Peek() != '"') return Fail("expected object key");
      if (!String()) return false;
      SkipWs();
      if (AtEnd() || Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool String() {
    ++pos_;  // '"'
    while (!AtEnd()) {
      const unsigned char c = static_cast<unsigned char>(Peek());
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c == '\\') {
        ++pos_;
        if (AtEnd()) break;
        const char e = Peek();
        if (e == 'u') {
          ++pos_;
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (AtEnd() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
              return Fail("invalid \\u escape");
            }
          }
          continue;
        }
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't') {
          return Fail("invalid escape");
        }
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool Number() {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("invalid fraction");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("invalid exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).Run();
}

}  // namespace trace
}  // namespace gpl

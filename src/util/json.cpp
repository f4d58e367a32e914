#include "util/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mtcmos::util {

namespace {

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string("json: expected ") + want + ", got " + kind_name(got));
}

}  // namespace

/// Recursive-descent parser; a named (friended) class so it can fill
/// JsonValue's private fields directly.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonPtr parse_document() {
    JsonPtr value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::runtime_error("json: " + what + " at line " + std::to_string(line) + ":" +
                             std::to_string(col));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonPtr parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonPtr v = JsonValue::make(JsonValue::Kind::kString);
      v->string_ = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') {
      JsonPtr v = JsonValue::make(JsonValue::Kind::kBool);
      if (consume_word("true")) {
        v->bool_ = true;
      } else if (consume_word("false")) {
        v->bool_ = false;
      } else {
        fail("invalid literal");
      }
      return v;
    }
    if (c == 'n') {
      if (!consume_word("null")) fail("invalid literal");
      return JsonValue::make(JsonValue::Kind::kNull);
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Specs are ASCII config files; \u is accepted for the basic
          // plane and emitted as UTF-8.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  JsonPtr parse_number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' ||
                                   text_[pos_] == 'E' || text_[pos_] == '+' ||
                                   text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(begin, pos_ - begin);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = begin;
      fail("invalid number");
    }
    if (!std::isfinite(value)) {  // JSON cannot carry inf: 1e999 overflowed
      pos_ = begin;
      fail("number out of range");
    }
    JsonPtr v = JsonValue::make(JsonValue::Kind::kNumber);
    v->number_ = value;
    return v;
  }

  JsonPtr parse_array() {
    expect('[');
    JsonPtr v = JsonValue::make(JsonValue::Kind::kArray);
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v->array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  JsonPtr parse_object() {
    expect('{');
    JsonPtr v = JsonValue::make(JsonValue::Kind::kObject);
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      if (v->fields_.count(key) != 0) fail("duplicate object key \"" + key + "\"");
      v->keys_.push_back(key);
      v->fields_[key] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonPtr>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

JsonPtr JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  const auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : it->second;
}

JsonPtr JsonValue::require(const std::string& key) const {
  JsonPtr v = get(key);
  if (v == nullptr) throw std::runtime_error("json: missing required field \"" + key + "\"");
  return v;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  JsonPtr v = get(key);
  return v == nullptr ? fallback : v->as_number();
}

std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  JsonPtr v = get(key);
  return v == nullptr ? fallback : v->as_string();
}

const std::vector<std::string>& JsonValue::object_keys() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return keys_;
}

JsonPtr JsonValue::make(Kind kind) {
  JsonPtr v = std::make_shared<JsonValue>();
  v->kind_ = kind;
  return v;
}

JsonPtr parse_json(const std::string& text) { return JsonParser(text).parse_document(); }

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // The contract is the first of %.15g, %.16g, %.17g that strtod()s back
  // to v.  The shortest round-trip digit count d picks that precision
  // directly: for d <= 15 the unique 15-digit decimal inside v's rounding
  // interval is %.15g, and for d >= 16 it is %.{d}g -- except at a power
  // of two, whose interval is narrower below than above, so %.16g can
  // round to the side that misses it and 17 digits are needed.
  // to_chars(general, p) is specified as printf("%.*g", p), byte for byte.
  char buf[32];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != r.ptr && *p != 'e'; ++p) digits += (*p >= '0' && *p <= '9');
  const int precision = std::max(15, digits);
  r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  if (precision == 16 && (std::bit_cast<std::uint64_t>(v) & kFraction) == 0) {
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back != v) r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  }
  out.append(buf, r.ptr);
}

std::string json_double(double v) {
  std::string out;
  append_json_double(out, v);
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out += '"';
  return out;
}

}  // namespace mtcmos::util

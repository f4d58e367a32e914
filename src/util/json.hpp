#pragma once
// Minimal JSON DOM for campaign spec files and table emission.
//
// The campaign driver needs to *read* a small hand-written spec
// (objects, arrays, strings, numbers, bools) and *write* a
// characterization table whose bytes are identical across fresh,
// resumed, and sharded runs.  That is the whole requirement -- no
// streaming parse, no unicode escapes beyond pass-through, no float
// fidelity games on input (specs are human-written values like 2.5).
// Output-side fidelity is the one hard part: json_double() prints the
// shortest decimal that round-trips to the exact bit pattern, so a
// table built from replayed bit-exact doubles is byte-stable.

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace mtcmos::util {

class JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors throw std::runtime_error naming the expected kind on
  /// mismatch, so spec errors surface as readable messages, not UB.
  double as_number() const;
  bool as_bool() const;
  const std::string& as_string() const;
  const std::vector<JsonPtr>& as_array() const;

  /// Object field lookup; `get` returns nullptr when absent, `require`
  /// throws with the field name.
  JsonPtr get(const std::string& key) const;
  JsonPtr require(const std::string& key) const;
  /// Convenience: field value or a default when absent.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  /// number_or as an `Int`, its fraction dropped.  Throws
  /// std::invalid_argument naming the field when the number lies outside
  /// Int's range, before the cast could overflow.
  template <typename Int>
  Int integer_or(const std::string& key, Int fallback) const;

  /// Object keys in file order (spec diagnostics / strict-field checks).
  const std::vector<std::string>& object_keys() const;

  static JsonPtr make(Kind kind);

 private:
  friend class JsonParser;  ///< json.cpp
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonPtr> array_;
  std::vector<std::string> keys_;           ///< insertion order
  std::map<std::string, JsonPtr> fields_;
};

/// Parse a complete JSON document.  Throws std::runtime_error with a
/// line:column position on malformed input, a number too large for a
/// double (JSON cannot carry inf), or trailing garbage.
JsonPtr parse_json(const std::string& text);

/// The first of %.15g, %.16g, %.17g that strtod()s back to exactly `v`
/// -- these bytes feed request keys, so they are a compatibility
/// contract.  NaN/inf -- which valid JSON cannot carry -- are emitted as
/// null.  The append form writes into `out` without a temporary.
void append_json_double(std::string& out, double v);
std::string json_double(double v);

/// Escape and quote `s` as a JSON string literal.
std::string json_string(const std::string& s);

template <typename Int>
Int JsonValue::integer_or(const std::string& key, Int fallback) const {
  const JsonPtr v = get(key);
  if (v == nullptr) return fallback;
  const double d = std::trunc(v->as_number());
  // Int's range is [min, 2^digits); both ends are exact doubles.
  constexpr double kEnd = 2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  if (!(d >= static_cast<double>(std::numeric_limits<Int>::min()) && d < kEnd)) {
    throw std::invalid_argument(key + " is out of range (" + json_double(v->as_number()) +
                                ")");
  }
  return static_cast<Int>(d);
}

}  // namespace mtcmos::util

// Minimal JSON support shared by the batch API, server, and surrogate
// table I/O: a strict recursive-descent parser
// into a small value tree, plus deterministic number formatting for the
// writer side.  In-repo on purpose — the batch wire format must not pull in
// an external dependency (ISSUE 3 / container constraint), and the subset
// we need (RFC 8259 minus \u surrogate pairs collapsing to UTF-8) is small.
//
// Writer determinism: format_double uses std::to_chars shortest round-trip
// formatting, so equal doubles always serialize to equal bytes — the
// foundation of the batch byte-identity guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nanocache::json {

class Value;
using ValuePtr = std::shared_ptr<const Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// Immutable parsed JSON value.
class Value {
 public:
  using Array = std::vector<ValuePtr>;
  /// std::map: deterministic iteration order for canonicalization.
  using Object = std::map<std::string, ValuePtr>;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw nanocache::Error(kConfig) on type mismatch
  /// (a malformed request, not an internal bug).
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;    ///< rejects non-integral numbers
  std::uint64_t as_uint() const;  ///< rejects negatives / non-integral
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; nullptr when absent (or not an object).
  ValuePtr get(const std::string& key) const;

  static ValuePtr make_null();
  static ValuePtr make_bool(bool b);
  static ValuePtr make_number(double d);
  static ValuePtr make_string(std::string s);
  static ValuePtr make_array(Array a);
  static ValuePtr make_object(Object o);

 private:
  Value() = default;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one complete JSON document.  Throws nanocache::Error(kConfig)
/// with position context on malformed input, trailing garbage, or arrays
/// and objects nested deeper than 64 levels.
ValuePtr parse(const std::string& text);

/// Appends to `out` the shortest round-trip decimal of `d` (to_chars).
/// NaN/Inf are rejected with Error(kNumericDomain) — they are not JSON.
void append_double(std::string& out, double d);
std::string format_double(double d);

/// JSON string literal (quotes + escapes) for `s`, appended to `out`.
void append_quoted(std::string& out, std::string_view s);
std::string quote(const std::string& s);

}  // namespace nanocache::json

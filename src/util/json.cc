#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/error.h"

namespace nanocache::json {

namespace {

[[noreturn]] void type_error(const char* wanted, Type got) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw Error(ErrorCategory::kConfig,
              std::string("JSON type mismatch: wanted ") + wanted + ", got " +
                  names[static_cast<int>(got)]);
}

[[noreturn]] void number_error(const char* what, double d) {
  throw Error(ErrorCategory::kConfig,
              std::string("JSON number is ") + what + ": " + format_double(d));
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_double() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

// Range before cast: converting an out-of-range double is undefined
// behaviour.  The bounds 2^63 and 2^64 are exact doubles.
std::int64_t Value::as_int() const {
  const double d = as_double();
  if (!(d >= -0x1p63 && d < 0x1p63)) number_error("out of range", d);
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) number_error("not an integer", d);
  return i;
}

std::uint64_t Value::as_uint() const {
  const double d = as_double();
  if (d < 0.0) number_error("negative", d);
  if (!(d < 0x1p64)) number_error("out of range", d);
  const auto u = static_cast<std::uint64_t>(d);
  if (static_cast<double>(u) != d) {
    number_error("not a non-negative integer", d);
  }
  return u;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

ValuePtr Value::get(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second;
}

ValuePtr Value::make_null() { return std::shared_ptr<Value>(new Value()); }

ValuePtr Value::make_bool(bool b) {
  auto v = std::shared_ptr<Value>(new Value());
  v->type_ = Type::kBool;
  v->bool_ = b;
  return v;
}

ValuePtr Value::make_number(double d) {
  auto v = std::shared_ptr<Value>(new Value());
  v->type_ = Type::kNumber;
  v->number_ = d;
  return v;
}

ValuePtr Value::make_string(std::string s) {
  auto v = std::shared_ptr<Value>(new Value());
  v->type_ = Type::kString;
  v->string_ = std::move(s);
  return v;
}

ValuePtr Value::make_array(Array a) {
  auto v = std::shared_ptr<Value>(new Value());
  v->type_ = Type::kArray;
  v->array_ = std::move(a);
  return v;
}

ValuePtr Value::make_object(Object o) {
  auto v = std::shared_ptr<Value>(new Value());
  v->type_ = Type::kObject;
  v->object_ = std::move(o);
  return v;
}

namespace {

/// Deepest array/object nesting a document may use.  The parser recurses
/// once per level, so without a cap a line of '[' exhausts the stack.  The
/// deepest line in the test fixtures (a response) nests 7 levels.
constexpr int kMaxDepth = 64;

/// Strict recursive-descent parser over a string view of the input.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ValuePtr parse_document() {
    ValuePtr v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw Error(ErrorCategory::kConfig,
                  "trailing garbage after JSON value at offset " +
                      std::to_string(pos_));
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw Error(ErrorCategory::kConfig,
                "JSON parse error at offset " + std::to_string(pos_) + ": " +
                    what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
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

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  ValuePtr parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ValuePtr v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value::make_null();
      default: return Value::make_number(parse_number());
    }
  }

  ValuePtr parse_object() {
    expect('{');
    Value::Object fields;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(fields));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      ValuePtr value = parse_value();
      if (!fields.emplace(std::move(key), std::move(value)).second) {
        fail("duplicate object key");
      }
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value::make_object(std::move(fields));
      }
      fail("expected ',' or '}' in object");
    }
  }

  ValuePtr parse_array() {
    expect('[');
    Value::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value::make_array(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are rejected
          // (the batch format is ASCII-clean in practice).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
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
        default: fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected digits in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("expected digits in exponent");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) fail("unparseable number");
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

ValuePtr parse(const std::string& text) {
  return Parser(text).parse_document();
}

void append_double(std::string& out, double d) {
  NC_REQUIRE_DOMAIN(std::isfinite(d),
                    "non-finite double cannot be serialized to JSON");
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  NC_REQUIRE_INTERNAL(ec == std::errc(), "to_chars failed");
  out.append(buf, ptr);
}

std::string format_double(double d) {
  std::string out;
  append_double(out, d);
  return out;
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

}  // namespace nanocache::json

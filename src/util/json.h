#ifndef FIELDSWAP_UTIL_JSON_H_
#define FIELDSWAP_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fieldswap {
namespace util {

/// Small generic JSON document model: span profiles are built with it,
/// flat-snapshot metadata built and parsed, synthetic corpus specs and
/// tenant manifests parsed. Objects are stored in a std::map, so key order is always
/// sorted: Parse -> Dump is a canonicalizing round trip, which keeps emitted
/// artifacts diff-friendly.
/// Numbers are doubles; integral values within the exact-double range dump
/// without a decimal point, everything else dumps via shortest-round-trip
/// formatting, so Dump(Parse(Dump(x))) == Dump(x).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  /// Strict recursive-descent parse of one JSON document (trailing
  /// whitespace allowed, trailing garbage rejected). Returns nullopt on any
  /// syntax error.
  static std::optional<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::map<std::string, JsonValue>& object_items() const {
    return object_;
  }

  /// Object field access; returns nullptr when this is not an object or
  /// the key is absent.
  const JsonValue* Find(const std::string& key) const;

  /// Mutators for building documents programmatically.
  JsonValue& Set(const std::string& key, JsonValue value);
  JsonValue& Append(JsonValue value);

  /// Serializes deterministically (object keys sorted by std::map).
  /// `indent` < 0 emits one line; >= 0 pretty-prints with that many spaces
  /// per level.
  std::string Dump(int indent = -1) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Shortest-round-trip formatting of a double ("3", "0.25", "1e-09").
/// Integral values inside the exact-double range print without a decimal
/// point. Shared so every perf artifact formats numbers identically.
std::string FormatJsonNumber(double value);

/// JSON string escaping (quotes, backslash, control characters).
std::string JsonEscapeString(const std::string& text);

}  // namespace util
}  // namespace fieldswap

#endif  // FIELDSWAP_UTIL_JSON_H_

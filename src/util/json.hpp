// Minimal deterministic JSON emission for experiment results.
//
// The experiment runner streams machine-readable results (JSONL records
// and BENCH_*.json summaries) that must be byte-identical across runs and
// thread counts, so the writer is deliberately strict: object keys keep
// insertion order, doubles are rendered with std::to_chars (shortest
// round-trip form, locale-independent), and there is no whitespace
// variation.  A small strict parser (Json::parse) exists for the tools
// that validate emitted artifacts (trace_check); it accepts exactly the
// JSON grammar, nothing vendor-specific.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace abg::util {

/// An immutable-ish JSON value tree with deterministic serialization.
class Json {
 public:
  /// Scalar constructors.
  static Json object();
  static Json array();
  static Json string(std::string value);
  static Json number(double value);
  static Json integer(std::int64_t value);
  static Json boolean(bool value);
  static Json null();

  /// Parses a complete JSON document (trailing whitespace allowed, trailing
  /// garbage rejected).  Numbers without '.', 'e' or 'E' that fit int64
  /// become integers, everything else a double.  Throws
  /// std::invalid_argument with a byte offset on malformed input.
  static Json parse(std::string_view text);

  /// Adds a key/value pair to an object (keys keep insertion order; the
  /// caller must not repeat keys).  Returns *this for chaining.  Throws
  /// std::logic_error when this value is not an object.
  Json& set(std::string key, Json value);

  /// Appends an element to an array.  Returns *this for chaining.  Throws
  /// std::logic_error when this value is not an array.
  Json& push(Json value);

  /// Serializes compactly (no spaces, "\n"-free); deterministic for a
  /// deterministically built tree.
  void write(std::ostream& os) const;

  /// write() into a string.
  std::string dump() const;

  /// Renders a double exactly as the serializer would (shortest
  /// round-trip via std::to_chars).  Exposed so labels derived from
  /// parameter values match the emitted JSON.
  static std::string format_number(double value);

  /// Kind queries.
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_integer() const { return kind_ == Kind::kInteger; }
  bool is_boolean() const { return kind_ == Kind::kBoolean; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Element / member count of an array or object; 0 for scalars.
  std::size_t size() const;

  /// Object member lookup (first match in insertion order); nullptr when
  /// the key is absent or this value is not an object.
  const Json* find(std::string_view key) const;

  /// Like find() but throws std::out_of_range when absent.
  const Json& at(std::string_view key) const;

  /// Array element access; throws std::out_of_range when out of bounds or
  /// not an array.
  const Json& at(std::size_t index) const;

  /// Typed reads; each throws std::logic_error on a kind mismatch.
  /// as_number additionally accepts integers (widened to double).
  const std::string& as_string() const;
  double as_number() const;
  std::int64_t as_integer() const;

  /// Object members in insertion order; throws std::logic_error when this
  /// value is not an object.
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Array elements; throws std::logic_error when this value is not an
  /// array.
  const std::vector<Json>& items() const;

 private:
  enum class Kind {
    kObject,
    kArray,
    kString,
    kNumber,
    kInteger,
    kBoolean,
    kNull
  };

  explicit Json(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::vector<std::pair<std::string, Json>> members_;  // kObject
  std::vector<Json> elements_;                         // kArray
  std::string string_ = {};                            // kString
  double number_ = 0.0;                                // kNumber
  std::int64_t integer_ = 0;                           // kInteger
  bool boolean_ = false;                               // kBoolean
};

/// Escapes `text` as the contents of a JSON string literal (no quotes).
std::string json_escape(const std::string& text);

}  // namespace abg::util

// Minimal JSON toolkit for the observability layer: a strict recursive-
// descent parser (objects, arrays, strings, numbers, bools, null) and a
// string escaper. Used to validate Chrome-trace output and parse metric
// dumps in tests. Not a general-purpose serialization framework: writers in
// this codebase emit JSON by hand (trace.cpp, metrics.cpp) and this parser
// proves the output well-formed.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpm::util::json {

/// A parsed JSON value. Object member order is preserved (useful for
/// byte-level canonicalization in tests); duplicate keys are kept as-is.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_bool() const noexcept { return type == Type::kBool; }
  bool is_number() const noexcept { return type == Type::kNumber; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_object() const noexcept { return type == Type::kObject; }

  /// First member with `key`, or nullptr (objects only).
  const Value* find(std::string_view key) const noexcept;
};

/// Parses a complete JSON document; throws std::runtime_error (with a byte
/// offset) on malformed input or trailing garbage.
Value parse(std::string_view text);

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included): `"`, `\`, control characters -> \uXXXX / short escapes.
std::string escape(std::string_view text);

}  // namespace cpm::util::json

#pragma once

// Minimal TOML-subset parser for the scenario DSL. Hand-rolled (the build
// takes no external dependencies) and deliberately small: exactly the
// constructs scenario files need, with line-accurate errors for everything
// else.
//
// Supported:
//   [table.path] headers, [[array.of.tables]] headers,
//   key = "string" | integer | float | true/false | [array, ...]
//   arrays may nest one level (zip axis tuples) and span multiple lines,
//   # comments, blank lines.
// Rejected with a ParseError naming the line:
//   inline tables {..}, dotted keys, duplicate keys, redefined tables,
//   unterminated strings/arrays, trailing garbage after a value.
//
// Every parsed value carries the 1-based line it started on so the schema
// layer above (doc.cc) can report "file:line: unknown key 'x'" instead of
// pointing at the whole file.

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace greencc::dsl {

class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line),
        message_(message) {}
  int line() const { return line_; }
  /// The message without the "line N: " prefix (DslError re-prefixes it
  /// with the file name).
  const std::string& message() const { return message_; }

 private:
  int line_;
  std::string message_;
};

struct TomlValue {
  enum class Kind { kString, kInt, kFloat, kBool, kArray, kTable };

  Kind kind = Kind::kTable;
  std::string str;             // kString
  std::int64_t integer = 0;    // kInt
  double number = 0.0;         // kFloat (kInt mirrors its value here too)
  bool boolean = false;        // kBool
  std::vector<TomlValue> array;             // kArray
  std::map<std::string, TomlValue, std::less<>> table;  // kTable
  int line = 0;  // 1-based source line the value started on

  bool is_string() const { return kind == Kind::kString; }
  bool is_int() const { return kind == Kind::kInt; }
  bool is_float() const { return kind == Kind::kFloat; }
  bool is_number() const { return is_int() || is_float(); }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_table() const { return kind == Kind::kTable; }

  /// Human-readable kind name for error messages ("string", "integer", ...).
  const char* kind_name() const;

  /// Numeric value of an int or float node (throws ParseError otherwise).
  double as_number() const;
};

/// Parses a whole document into the root table. Throws ParseError with a
/// 1-based line number on any syntax error.
TomlValue parse_toml(std::string_view text);

}  // namespace greencc::dsl

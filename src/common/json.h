// Minimal JSON value + recursive-descent parser for the `bfpp serve`
// line-delimited request protocol (api/server.h).
//
// Scope is deliberately small: parse one complete JSON document into an
// immutable tree of Values and read it back with typed accessors. The
// emitting direction stays where it always was (Report::to_json and the
// common/strings.h formatter); this module only *reads* client requests.
//
//   const json::Value v = json::parse(R"({"type":"run","pp":8})");
//   v.get("type")->as_string();   // "run"
//   v.get("pp")->as_int("pp");    // 8
//   v.get("missing");             // nullptr
//
// Numbers are stored as double (ints round-trip exactly up to 2^53,
// far beyond any grid axis). Object keys keep insertion order and may
// repeat (last one wins on get()). Parse errors throw bfpp::ConfigError
// with the byte offset; nesting is capped so hostile input cannot
// overflow the stack.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace bfpp::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  // Typed reads. Each throws bfpp::ConfigError naming `what` when the
  // value is not of the requested type (as_int additionally requires an
  // exact integer).
  [[nodiscard]] bool as_bool(const char* what = "value") const;
  [[nodiscard]] double as_number(const char* what = "value") const;
  [[nodiscard]] int as_int(const char* what = "value") const;
  [[nodiscard]] const std::string& as_string(const char* what = "value") const;

  // Array access.
  [[nodiscard]] size_t size() const { return array_.size(); }
  [[nodiscard]] const std::vector<Value>& items() const { return array_; }

  // Object access: the value under `key`, or nullptr when absent (or
  // when this is not an object). Duplicate keys resolve to the last.
  [[nodiscard]] const Value* get(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const {
    return object_;
  }

 private:
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

// Parses exactly one JSON document (trailing whitespace allowed, nothing
// else). Throws bfpp::ConfigError on malformed input.
Value parse(const std::string& text);

}  // namespace bfpp::json

#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::json {

namespace {

// Hostile-input guard: a request line of nothing but '[' would otherwise
// recurse once per byte.
constexpr int kMaxDepth = 64;

// Room made on the first member of an object and the first item of an
// array. A serve request has about a dozen members and its axis lists a
// few values each, so each takes one allocation, where growing a vector
// of Values by doubling took up to five.
constexpr size_t kMembersReserve = 16;
constexpr size_t kItemsReserve = 4;

// strtod's answer for a number literal that from_chars reports out of
// range (from_chars then leaves its output unset): +-inf on overflow,
// +-0 on underflow. The literal overflows iff its leading nonzero digit,
// once the exponent is applied, lies left of the decimal point.
double out_of_range_value(const char* first, const char* last) {
  const char* e =
      std::find_if(first, last, [](char c) { return c == 'e' || c == 'E'; });
  const char* point = std::find(first, e, '.');
  const char* lead =
      std::find_if(first, e, [](char c) { return c >= '1' && c <= '9'; });
  // The mantissa lies in [10^(digits-1), 10^digits).
  const long long digits = lead < point ? point - lead : point + 1 - lead;
  long long exponent = 0;  // saturates where from_chars overflows
  if (e != last && std::from_chars(e + (e[1] == '+' ? 2 : 1), last, exponent)
                           .ec != std::errc()) {
    exponent = e[1] == '-' ? -(1LL << 62) : 1LL << 62;
  }
  return std::copysign(digits + exponent > 0 ? HUGE_VAL : 0.0,
                       *first == '-' ? -1.0 : 1.0);
}

}  // namespace

bool Value::as_bool(const char* what) const {
  check_config(is_bool(), "json: %s must be true or false", what);
  return bool_;
}

double Value::as_number(const char* what) const {
  check_config(is_number(), "json: %s must be a number", what);
  return number_;
}

int Value::as_int(const char* what) const {
  const double x = as_number(what);
  check_config(x == std::floor(x) && x >= -2147483648.0 && x <= 2147483647.0,
               "json: %s must be an integer", what);
  return static_cast<int>(x);
}

const std::string& Value::as_string(const char* what) const {
  check_config(is_string(), "json: %s must be a string", what);
  return string_;
}

const Value* Value::get(const std::string& key) const {
  const Value* found = nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) found = &v;
  }
  return found;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    require(pos_ == text_.size(), "trailing content after the JSON document");
    return v;
  }

 private:
  // Formats only once the document is known to be bad. Inline, not the
  // varargs check_config: it runs per character, and gcc never inlines
  // a varargs function.
  void require(bool ok, const char* what) const {
    if (ok) return;
    throw ConfigError(str_format("json: %s (at byte %zu)", what, pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    const size_t at = pos_;  // before peek() skips whitespace, always
    check_config(peek() == c, "json: expected '%c' (at byte %zu)", c, at);
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value(int depth) {
    require(depth < kMaxDepth, "nesting too deep");
    const char c = peek();
    Value v;
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        v.type_ = Value::Type::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        require(consume_word("true"), "invalid literal");
        v.type_ = Value::Type::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        require(consume_word("false"), "invalid literal");
        v.type_ = Value::Type::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        require(consume_word("null"), "invalid literal");
        return v;  // kNull
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value v;
    v.type_ = Value::Type::kObject;
    if (consume('}')) return v;
    v.object_.reserve(kMembersReserve);
    while (true) {
      require(peek() == '"', "object keys must be strings");
      std::string key = parse_string();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value(depth + 1));
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value v;
    v.type_ = Value::Type::kArray;
    if (consume(']')) return v;
    v.array_.reserve(kItemsReserve);
    while (true) {
      v.array_.push_back(parse_value(depth + 1));
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c == '\\') {
        require(pos_ < text_.size(), "unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_unicode_escape(); break;
          default:
            require(false, "invalid escape sequence");
        }
        continue;
      }
      require(c >= 0x20, "unescaped control character in string");
      out += static_cast<char>(c);
    }
  }

  unsigned parse_hex4() {
    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
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
        require(false, "invalid \\u escape");
      }
    }
    return code;
  }

  // Decodes \uXXXX (and a surrogate pair when the first escape is a high
  // surrogate) to UTF-8.
  std::string parse_unicode_escape() {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
      require(pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u',
              "unpaired surrogate in \\u escape");
      pos_ += 2;
      const unsigned low = parse_hex4();
      require(low >= 0xDC00 && low <= 0xDFFF,
              "invalid low surrogate in \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else {
      require(!(code >= 0xDC00 && code <= 0xDFFF),
              "unpaired surrogate in \\u escape");
    }
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Value parse_number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    require(digits(), "invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      require(digits(), "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(digits(), "invalid number");
    }
    // The grammar above admits only what from_chars parses in full.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    Value v;
    v.type_ = Value::Type::kNumber;
    if (std::from_chars(first, last, v.number_).ec ==
        std::errc::result_out_of_range) {
      v.number_ = out_of_range_value(first, last);
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace bfpp::json

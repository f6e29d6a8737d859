#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <system_error>

#include "common/error.h"

namespace bfpp {

namespace {
// One vsnprintf pass into a stack buffer; a second, sized pass only for
// output that does not fit.
std::string vformat(const char* fmt, va_list args) {
  char buf[256];
  va_list retry;
  va_copy(retry, args);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  std::string out;
  if (n >= static_cast<int>(sizeof buf)) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, retry);
  } else if (n > 0) {
    out.assign(buf, static_cast<size_t>(n));
  }
  va_end(retry);
  return out;
}

std::string& append_chars(std::string& out, double x, std::chars_format form,
                          int precision) {
  // Sign, 309 integer digits, point and 17 decimals: the longest
  // "%.17f"; every "%.17g" is far shorter.
  char buf[328];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, x, form, precision);
  check(ec == std::errc(), "number formatter: precision %d out of range",
        precision);
  return out.append(buf, end);
}
}  // namespace

std::string& append_general(std::string& out, double x, int precision) {
  return append_chars(out, x, std::chars_format::general, precision);
}

std::string& append_fixed(std::string& out, double x, int precision) {
  return append_chars(out, x, std::chars_format::fixed, precision);
}

std::string& append_int(std::string& out, long long x) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  (void)ec;  // 24 bytes hold every long long
  return out.append(buf, end);
}

void StringWriter::grow(size_t n) {
  const size_t at = static_cast<size_t>(at_ - out_.data());
  out_.resize(std::max(2 * out_.size(), at + n));
  at_ = out_.data() + at;
  end_ = out_.data() + out_.size();
}

std::string format_fixed(double x, int precision, int width) {
  std::string out;
  append_fixed(out, x, precision);
  const auto pad = static_cast<size_t>(width);
  if (width > 0 && out.size() < pad) out.insert(0, pad - out.size(), ' ');
  return out;
}

std::string format_percent(double fraction, int width, bool plus) {
  const double x = 100.0 * fraction;
  std::string out = format_fixed(x, 1, width);
  if (plus && !std::signbit(x)) out.insert(out.begin(), '+');
  return out += '%';
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

void throw_error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw Error(message);
}

void throw_config_error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw ConfigError(message);
}

#if !defined(__GNUC__) || defined(__clang__)
template <int>
void check(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw Error(message);
}

template <int>
void check_config(bool condition, const char* fmt, ...) {
  if (condition) return;
  va_list args;
  va_start(args, fmt);
  std::string message = vformat(fmt, args);
  va_end(args);
  throw ConfigError(message);
}

template void check<0>(bool, const char*, ...);
template void check_config<0>(bool, const char*, ...);
#endif

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string& append_json_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  return append_json_quoted(out, s);
}

std::string to_lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::optional<int> parse_int(const std::string& text) {
  if (text.empty()) return std::nullopt;
  long long value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
    if (value > std::numeric_limits<int>::max()) return std::nullopt;
  }
  return static_cast<int>(value);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string format_bytes(double bytes) {
  if (bytes >= 1e12) return format_fixed(bytes / 1e12, 2) + " TB";
  if (bytes >= 1e9) return format_fixed(bytes / 1e9, 2) + " GB";
  if (bytes >= 1e6) return format_fixed(bytes / 1e6, 2) + " MB";
  if (bytes >= 1e3) return format_fixed(bytes / 1e3, 2) + " KB";
  return format_fixed(bytes, 0) + " B";
}

std::string format_flops(double flops) {
  if (flops >= 1e15) return format_fixed(flops / 1e15, 2) + " Pflop/s";
  if (flops >= 1e12) return format_fixed(flops / 1e12, 2) + " Tflop/s";
  if (flops >= 1e9) return format_fixed(flops / 1e9, 2) + " Gflop/s";
  return format_fixed(flops, 0) + " flop/s";
}

std::string format_time(double seconds) {
  const double a = std::fabs(seconds);
  if (a >= 1.0) return format_fixed(seconds, 3) + " s";
  if (a >= 1e-3) return format_fixed(seconds * 1e3, 3) + " ms";
  if (a >= 1e-6) return format_fixed(seconds * 1e6, 3) + " us";
  return format_fixed(seconds * 1e9, 1) + " ns";
}

std::string format_number(double x, int digits) {
  std::string s = format_fixed(x, digits);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string errno_string(int err) {
  return std::generic_category().message(err);
}

}  // namespace bfpp

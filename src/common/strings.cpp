#include "common/strings.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <limits>
#include <system_error>

#include "common/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <locale.h>
#endif

namespace bfpp {
namespace detail {

#if defined(__unix__) || defined(__APPLE__)

namespace {
locale_t c_locale_handle() {
  static locale_t loc = newlocale(LC_ALL_MASK, "C", static_cast<locale_t>(0));
  return loc;
}
}  // namespace

ScopedCLocale::ScopedCLocale() {
  locale_t loc = c_locale_handle();
  if (loc != static_cast<locale_t>(0)) {
    previous_ = reinterpret_cast<void*>(uselocale(loc));
  }
}

ScopedCLocale::~ScopedCLocale() {
  if (previous_ != nullptr) {
    uselocale(reinterpret_cast<locale_t>(previous_));
  }
}

#else  // no per-thread locales: snprintf already uses the global locale

ScopedCLocale::ScopedCLocale() = default;
ScopedCLocale::~ScopedCLocale() = default;

#endif

}  // namespace detail

namespace {
std::string vformat(const char* fmt, va_list args) {
  const detail::ScopedCLocale c_locale;
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n <= 0) return {};
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}
}  // namespace

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

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

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
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
  return out;
}

std::string json_quote(const std::string& s) {
  // Built piecewise: gcc 12's -Wrestrict false-positives on
  // `"literal" + std::string&&` (PR105651).
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
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
  if (bytes >= 1e12) return str_format("%.2f TB", bytes / 1e12);
  if (bytes >= 1e9) return str_format("%.2f GB", bytes / 1e9);
  if (bytes >= 1e6) return str_format("%.2f MB", bytes / 1e6);
  if (bytes >= 1e3) return str_format("%.2f KB", bytes / 1e3);
  return str_format("%.0f B", bytes);
}

std::string format_flops(double flops_per_s) {
  if (flops_per_s >= 1e15) return str_format("%.2f Pflop/s", flops_per_s / 1e15);
  if (flops_per_s >= 1e12) return str_format("%.2f Tflop/s", flops_per_s / 1e12);
  if (flops_per_s >= 1e9) return str_format("%.2f Gflop/s", flops_per_s / 1e9);
  return str_format("%.0f flop/s", flops_per_s);
}

std::string format_time(double seconds) {
  const double a = std::fabs(seconds);
  if (a >= 1.0) return str_format("%.3f s", seconds);
  if (a >= 1e-3) return str_format("%.3f ms", seconds * 1e3);
  if (a >= 1e-6) return str_format("%.3f us", seconds * 1e6);
  return str_format("%.1f ns", seconds * 1e9);
}

std::string format_number(double x, int digits) {
  std::string s = str_format("%.*f", digits, x);
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

// Small string-formatting helpers used across the library.
//
// libstdc++ 12 does not ship std::format, so we provide a checked
// snprintf wrapper, a locale-free number formatter and the handful of
// helpers the table printers need.
#pragma once

#include <algorithm>
#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bfpp {

// Marks a varargs function as printf-like so the compiler type-checks
// format string against arguments at every call site (-Wformat).
#if defined(__GNUC__) || defined(__clang__)
#define BFPP_PRINTF_LIKE(fmt_index, first_arg) \
  __attribute__((format(printf, fmt_index, first_arg)))
#else
#define BFPP_PRINTF_LIKE(fmt_index, first_arg)
#endif

// vsnprintf into a std::string, exact (no truncation). Doubles print
// with the process locale's radix point, so src/ formats them with
// append_general/append_fixed below instead (the bfpp-lint determinism
// pass rejects a float conversion there). A real varargs function rather
// than a template so BFPP_PRINTF_LIKE applies: the compiler rejects
// specifier/argument mismatches at the call site.
std::string str_format(const char* fmt, ...) BFPP_PRINTF_LIKE(1, 2);

// The number formatter: appends `x` to `out` (and returns `out`) exactly
// as printf's "%.{precision}g" (general) or "%.{precision}f" (fixed)
// prints it in the "C" locale, whatever the process locale; precision
// is 0..17. std::to_chars is specified that way.
std::string& append_general(std::string& out, double x, int precision);
std::string& append_fixed(std::string& out, double x, int precision);
// Appends `x` as printf's "%lld" prints it.
std::string& append_int(std::string& out, long long x);

// Appends pieces to `out` through a cursor into room made up front, so
// each piece is a copy or to_chars instead of a call into std::string;
// it makes more room if a piece does not fit, and trims `out` to what
// was written when it goes. For strings built piece by piece on a hot
// path (cache keys).
class StringWriter {
 public:
  StringWriter(std::string& out, size_t room) : out_(out) {
    const size_t start = out.size();
    out.resize(start + room);
    at_ = out.data() + start;
    end_ = out.data() + out.size();
  }
  ~StringWriter() { out_.resize(static_cast<size_t>(at_ - out_.data())); }
  StringWriter(const StringWriter&) = delete;
  StringWriter& operator=(const StringWriter&) = delete;

  StringWriter& operator<<(std::string_view piece) {
    make_room(piece.size());
    at_ = std::copy(piece.begin(), piece.end(), at_);
    return *this;
  }
  StringWriter& operator<<(char c) {
    make_room(1);
    *at_++ = c;
    return *this;
  }
  // As printf's "%lld" prints it.
  StringWriter& operator<<(long long x) {
    make_room(20);  // "-9223372036854775808"
    at_ = std::to_chars(at_, at_ + 20, x).ptr;
    return *this;
  }
  StringWriter& operator<<(int x) { return *this << static_cast<long long>(x); }

 private:
  void make_room(size_t n) {
    if (static_cast<size_t>(end_ - at_) < n) grow(n);
  }
  void grow(size_t n);

  std::string& out_;
  char* at_;   // the end of what was written
  char* end_;  // the end of the room
};

// printf's "%{width}.{precision}f": append_fixed into a fresh string,
// left-padded with spaces to `width` characters.
std::string format_fixed(double x, int precision, int width = 0);

// 100 * `fraction` as printf's "%{width}.1f%%" prints it ("42.0%");
// `plus` prefixes '+' when the sign bit is clear, as "%+.1f%%" does.
std::string format_percent(double fraction, int width = 0, bool plus = false);

// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

// Appends `s` as a JSON string literal: in double quotes, with quotes,
// backslashes, \n/\t and (as \u00xx) other control bytes escaped.
// Shared by the Report emitters and the serve protocol so both sides of
// the wire escape identically.
std::string& append_json_quoted(std::string& out, std::string_view s);

// append_json_quoted into a fresh string.
std::string json_quote(const std::string& s);

// ASCII lowercase copy (used by the name/enum parsers).
std::string to_lower(std::string s);

// Strict non-negative decimal integer parse: digits only (no sign,
// whitespace or suffix), value representable as int. Returns nullopt on
// any violation — including overflow — instead of throwing, so callers
// (CLI flags, registry name suffixes) attach their own context. Never
// raises std::invalid_argument/std::out_of_range the way bare std::stoi
// does.
std::optional<int> parse_int(const std::string& text);

// Splits on runs of whitespace, dropping empty tokens.
std::vector<std::string> split_ws(const std::string& s);

// Splits on `sep`, dropping empty tokens ("a,,b" -> {"a", "b"}).
std::vector<std::string> split(const std::string& s, char sep);

// Human-readable byte count, e.g. "15.96 GB" (decimal units, matching the
// paper's tables which report GB).
std::string format_bytes(double bytes);

// Human-readable flop/s, e.g. "36.3 Tflop/s".
std::string format_flops(double flops_per_s);

// Seconds with adaptive unit (ns/us/ms/s), used by timeline printers.
std::string format_time(double seconds);

// Formats `x` with `digits` significant decimal places, trimming trailing
// zeros ("42.77", "8", "0.5").
std::string format_number(double x, int digits = 2);

// The strerror message for `err`, via the thread-safe
// std::generic_category().message() (std::strerror shares one static
// buffer across threads - flagged by clang-tidy concurrency-mt-unsafe -
// and the server formats errno messages from concurrent sessions).
std::string errno_string(int err);

}  // namespace bfpp

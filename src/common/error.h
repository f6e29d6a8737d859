// Error handling for the bfpp library.
//
// All precondition / invariant violations throw bfpp::Error. We use
// exceptions (not status codes) because configuration errors are rare,
// unrecoverable at the call site, and carry a human-readable explanation
// that the autotuner surfaces when it rejects a configuration.
#pragma once

#include <stdexcept>
#include <string>

#include "common/strings.h"

namespace bfpp {

// Base exception for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Thrown when a requested parallel configuration is structurally invalid
// (e.g. stages do not divide layers). The autotuner catches this to prune
// the search space, so it must be distinguishable from logic bugs.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

// Thrown for a malformed command-line flag *value* (e.g. `--pp eight`,
// or an out-of-range `--port 99999999999`). A ConfigError so every
// existing catch site treats it as the configuration error it is, but
// distinguishable so the CLI driver can exit 2 (bad invocation) instead
// of 1.
class UsageError : public ConfigError {
 public:
  explicit UsageError(const std::string& what) : ConfigError(what) {}
};

// Thrown by the memory model / runtime when a configuration does not fit
// in device memory. Also caught (and counted) by the autotuner.
class OutOfMemoryError : public Error {
 public:
  explicit OutOfMemoryError(const std::string& what) : Error(what) {}
};

// The cold half of the formatted checks below: formats like str_format
// and throws Error (throw_error) or ConfigError (throw_config_error).
[[noreturn]] void throw_error(const char* fmt, ...) BFPP_PRINTF_LIKE(1, 2);
[[noreturn]] void throw_config_error(const char* fmt, ...)
    BFPP_PRINTF_LIKE(1, 2);

// Throw Error (check) or ConfigError (check_config) when `condition` is
// false. A lone message is used verbatim ('%' prints as itself); a printf
// format is -Wformat-checked like str_format and formatted only on
// failure (its arguments are still evaluated: pass cheap ones). The
// format forms are templates only so that a lone message picks the
// verbatim overload.
inline void check(bool condition, const char* message) {
  if (!condition) throw Error(message);
}
inline void check_config(bool condition, const char* message) {
  if (!condition) throw ConfigError(message);
}

#if defined(__GNUC__) && !defined(__clang__)
// gcc always inlines the format forms and hands their arguments to the
// cold thrower with __builtin_va_arg_pack(), so a passing check costs a
// test and a branch, not an out-of-line varargs call: per-op loops such
// as schedule::validate run them for every op.
template <int = 0>
BFPP_PRINTF_LIKE(2, 3)
__attribute__((always_inline)) inline void check(bool condition,
                                                 const char* fmt, ...) {
  if (!condition) [[unlikely]] throw_error(fmt, __builtin_va_arg_pack());
}
template <int = 0>
BFPP_PRINTF_LIKE(2, 3)
__attribute__((always_inline)) inline void check_config(bool condition,
                                                        const char* fmt,
                                                        ...) {
  if (!condition) [[unlikely]] {
    throw_config_error(fmt, __builtin_va_arg_pack());
  }
}
#else
// Other compilers lack the builtin: there the format forms are out-of-line
// varargs calls, defined in strings.cpp.
template <int = 0>
void check(bool condition, const char* fmt, ...) BFPP_PRINTF_LIKE(2, 3);
template <int = 0>
void check_config(bool condition, const char* fmt, ...)
    BFPP_PRINTF_LIKE(2, 3);
#endif

}  // namespace bfpp

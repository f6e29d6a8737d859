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

// Throw Error (check) or ConfigError (check_config) when `condition` is
// false. A lone message is used verbatim ('%' prints as itself); a printf
// format is -Wformat-checked like str_format and formatted only on
// failure (its arguments are still evaluated: pass cheap ones). The
// format forms are templates only so that a lone message picks the
// verbatim overload; strings.cpp defines them.
inline void check(bool condition, const char* message) {
  if (!condition) throw Error(message);
}
template <int = 0>
void check(bool condition, const char* fmt, ...) BFPP_PRINTF_LIKE(2, 3);

inline void check_config(bool condition, const char* message) {
  if (!condition) throw ConfigError(message);
}
template <int = 0>
void check_config(bool condition, const char* fmt, ...)
    BFPP_PRINTF_LIKE(2, 3);

}  // namespace bfpp

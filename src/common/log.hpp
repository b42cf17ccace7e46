/**
 * @file
 * Minimal logging and error-reporting helpers, following the gem5
 * fatal()/panic() distinction:
 *
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid argument). Exits with status 1.
 *  - panic(): an internal invariant was violated (a simulator bug).
 *    Aborts so a core dump / debugger can be used.
 *  - warn()/inform(): non-fatal status messages.
 */

#ifndef PHASTLANE_COMMON_LOG_HPP
#define PHASTLANE_COMMON_LOG_HPP

#include <string>

namespace phastlane {

/** Verbosity levels for inform()/debugLog(). */
enum class LogLevel {
    Quiet = 0,
    Info = 1,
    Debug = 2,
};

/** Set the global verbosity (default: Info). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Print an informational message (printf formatting) at Info level. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug message, shown only at Debug level. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning; never stops the simulation. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** User-level error: print and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal invariant violation: print and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Append a printf-formatted string of any length to @p out. */
void appendF(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

namespace detail {

/** Format a printf-style message into a std::string ("" when empty). */
std::string formatMsg();
std::string formatMsg(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** panic() unless @p cond holds; cheap enough to keep in release builds
 *  for structural invariants. Optional printf-style context arguments. */
#define PL_ASSERT(cond, ...)                                             \
    do {                                                                 \
        if (!(cond))                                                     \
            ::phastlane::panic("assertion failed: %s %s", #cond,         \
                               ::phastlane::detail::formatMsg(           \
                                   __VA_ARGS__).c_str());                \
    } while (0)

} // namespace phastlane

#endif // PHASTLANE_COMMON_LOG_HPP

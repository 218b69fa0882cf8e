/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * unrecoverable user errors in CLI-only code, warn() for non-fatal
 * status messages.
 *
 * Library code reports recoverable failures (bad configuration, corrupt
 * traces, watchdog expiry) by throwing the SimError hierarchy in
 * util/status.hh instead of calling fatal(); CLIs restore the old
 * print-and-exit behaviour with util::runTopLevel().
 */

#ifndef FO4_UTIL_LOGGING_HH
#define FO4_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace fo4::util
{

/**
 * Report an internal invariant violation and abort.  Use for conditions
 * that indicate a bug in the simulator itself, never for user error.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print the location header of a failed assertion (used by FO4_ASSERT). */
void assertFailed(const char *cond, const char *file, int line);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

/**
 * Assert a simulator invariant with a formatted message.  Compiled in all
 * build types (unlike assert()) because cycle-accurate models are cheap to
 * check and expensive to debug.
 */
#define FO4_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::fo4::util::assertFailed(#cond, __FILE__, __LINE__);           \
            ::fo4::util::panic(__VA_ARGS__);                                \
        }                                                                   \
    } while (0)

} // namespace fo4::util

#endif // FO4_UTIL_LOGGING_HH

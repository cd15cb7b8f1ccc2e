/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal simulator bug; aborts.
 * fatal()  - a user/configuration error; prints `error:` and exits 2,
 *            the bad-usage status of every driver (src/api/cli.hh).
 * warn()   - something may be wrong but simulation continues.
 * inform() - a status message.
 *
 * All take printf-style format strings.
 */

#ifndef BBB_SIM_LOGGING_HH
#define BBB_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace bbb
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Silent = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/**
 * Global log verbosity; defaults to Warn so tests stay quiet. The level
 * is an atomic and every helper emits whole lines under one writer lock,
 * so concurrent simulations (runExperiments) can log safely.
 */
LogLevel logLevel();

/** Set the global log verbosity (thread-safe). */
void setLogLevel(LogLevel lvl);

/** Internal: formatted print with a level prefix. */
void logVPrint(const char *prefix, const char *fmt, std::va_list ap);

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(2). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a normal status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a debug-level message (only shown at LogLevel::Debug). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Internal: print the location part of a failed assertion. */
void assertFailLocation(const char *cond, const char *file, int line);

/**
 * Assert that always fires (also in release builds), used for simulator
 * invariants whose violation indicates a bug.
 */
#define BBB_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::bbb::assertFailLocation(#cond, __FILE__, __LINE__);           \
            ::bbb::panic(__VA_ARGS__);                                      \
        }                                                                   \
    } while (0)

} // namespace bbb

#endif // BBB_SIM_LOGGING_HH

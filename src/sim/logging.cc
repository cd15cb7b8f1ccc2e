#include "sim/logging.hh"

#include <atomic>
#include <cstdarg>
#include <mutex>

namespace bbb
{

namespace
{

std::atomic<LogLevel> gLevel{LogLevel::Warn};

/**
 * Serializes whole log lines across threads: the parallel experiment
 * runner executes simulations on a worker pool, and interleaved
 * fprintf fragments would make warn()/inform() output unreadable.
 */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

LogLevel
logLevel()
{
    return gLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel lvl)
{
    gLevel.store(lvl, std::memory_order_relaxed);
}

void
logVPrint(const char *prefix, const char *fmt, std::va_list ap)
{
    // Format into a buffer first so the lock is held only for one write
    // and a line is never split between two threads' output.
    char body[2048];
    std::vsnprintf(body, sizeof(body), fmt, ap);
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "%s: %s\n", prefix, body);
}

void
assertFailLocation(const char *cond, const char *file, int line)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d\n", cond,
                 file, line);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    logVPrint("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    logVPrint("error", fmt, ap);
    va_end(ap);
    std::exit(2);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    logVPrint("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Info)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    logVPrint("info", fmt, ap);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    logVPrint("debug", fmt, ap);
    va_end(ap);
}

} // namespace bbb

/**
 * @file
 * Tiny shared command-line helpers for the bench and example binaries.
 *
 * Every binary in bench/ and examples/ parses the same handful of flags
 * (`--fast`, `--jobs N`, `--json PATH`, comma-separated name lists);
 * this header is the single implementation. Flags may repeat — the last
 * occurrence wins, like most CLIs — and a trailing flag with a missing
 * value warns instead of being silently dropped. Under `--strict-args`
 * (passed by the campaign drivers, so a malformed sweep invocation
 * cannot quietly run with defaults) that warning is a hard error:
 * the process exits with status 2.
 */

#ifndef BBB_API_CLI_HH
#define BBB_API_CLI_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace bbb
{
namespace cli
{

/** True if @p flag appears anywhere on the command line. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

/** True if `--strict-args` appears: malformed flags become fatal. */
inline bool
strictArgs(int argc, char **argv)
{
    return hasFlag(argc, argv, "--strict-args");
}

/**
 * Value of the last `@p flag VALUE` pair, or @p def when absent. A
 * trailing @p flag with no value warns on stderr (instead of the old
 * behaviour of silently ignoring it) and keeps the previous value —
 * or, under `--strict-args`, exits with status 2.
 */
inline std::string
stringOpt(int argc, char **argv, const char *flag,
          const std::string &def = std::string())
{
    std::string value = def;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (i + 1 >= argc) {
            if (strictArgs(argc, argv)) {
                std::fprintf(stderr,
                             "error: %s requires a value\n", flag);
                std::exit(2);
            }
            std::fprintf(stderr,
                         "warning: %s requires a value; ignoring it\n",
                         flag);
            continue;
        }
        value = argv[++i];
    }
    return value;
}

/** True if `--fast` appears on the command line (CI smoke mode). */
inline bool
fastMode(int argc, char **argv)
{
    return hasFlag(argc, argv, "--fast");
}

/**
 * Worker-pool width: `--jobs N` on the command line, else the BBB_JOBS
 * environment variable, else 0 (= hardware concurrency, resolved by the
 * worker pool). N must be unsigned decimal digits (at most nine);
 * anything else warns and uses 0 — or, under `--strict-args`, exits
 * with status 2.
 */
inline unsigned
jobsArg(int argc, char **argv)
{
    const char *source = "--jobs";
    std::string value = stringOpt(argc, argv, source);
    if (value.empty()) {
        const char *env = std::getenv("BBB_JOBS");
        if (!env || !*env)
            return 0;
        source = "BBB_JOBS";
        value = env;
    }
    bool digits = value.size() <= 9;
    for (char c : value)
        digits = digits && c >= '0' && c <= '9';
    if (digits)
        return static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    if (strictArgs(argc, argv)) {
        std::fprintf(stderr,
                     "error: %s expects an unsigned integer, got '%s'\n",
                     source, value.c_str());
        std::exit(2);
    }
    std::fprintf(stderr,
                 "warning: %s expects an unsigned integer, got '%s'; "
                 "using 0 (all hardware threads)\n",
                 source, value.c_str());
    return 0;
}

/** Split a comma-separated list, dropping empty segments. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> names;
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t comma = arg.find(',', start);
        if (comma == std::string::npos)
            comma = arg.size();
        if (comma > start)
            names.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return names;
}

/**
 * Parse @p text, the value of @p flag, as a positive real (a battery
 * capacity, say), or exit 2 with a diagnostic whatever the strictness:
 * a zero or malformed capacity describes no battery at all.
 */
inline double
positiveReal(const char *flag, const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(v > 0.0) ||
        !std::isfinite(v)) {
        std::fprintf(stderr, "error: %s expects a positive real, got '%s'\n",
                     flag, text.c_str());
        std::exit(2);
    }
    return v;
}

/** Comma-separated list of positive reals, each as in positiveReal. */
inline std::vector<double>
positiveRealList(const char *flag, const std::string &value)
{
    std::vector<double> out;
    for (const std::string &tok : splitList(value))
        out.push_back(positiveReal(flag, tok));
    return out;
}

/**
 * Boolean switch with an explicit value: `@p flag on|off` (also
 * accepts 1/0/true/false), or @p def when absent. Anything else warns
 * and keeps @p def — or, under `--strict-args`, exits with status 2.
 */
inline bool
onOffArg(int argc, char **argv, const char *flag, bool def)
{
    std::string value = stringOpt(argc, argv, flag);
    if (value.empty())
        return def;
    if (value == "on" || value == "1" || value == "true")
        return true;
    if (value == "off" || value == "0" || value == "false")
        return false;
    if (strictArgs(argc, argv)) {
        std::fprintf(stderr, "error: %s expects on|off, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
    }
    std::fprintf(stderr,
                 "warning: %s expects on|off, got '%s'; keeping the "
                 "default\n",
                 flag, value.c_str());
    return def;
}

/** `--json PATH` destination for the structured report ("" = none). */
inline std::string
jsonPathArg(int argc, char **argv)
{
    return stringOpt(argc, argv, "--json");
}

} // namespace cli
} // namespace bbb

#endif // BBB_API_CLI_HH

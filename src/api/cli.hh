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
#include <cstdint>
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

/**
 * Parse @p text as plain unsigned decimal digits (no sign, space or
 * suffix) no greater than @p max into @p out. False on anything else.
 */
inline bool
parseUnsigned(const std::string &text, std::uint64_t max,
              std::uint64_t *out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        unsigned d = static_cast<unsigned>(c - '0');
        if (v > max / 10 || (v == max / 10 && d > max % 10))
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

/**
 * Parse @p text, the value of @p flag, as an unsigned decimal in
 * [@p min, @p max], or exit 2 with a diagnostic whatever the
 * strictness: `abc` or `5x` names no count, and an unchecked strtoul
 * would quietly run 0 or 5 of them.
 */
inline std::uint64_t
unsignedArg(const char *flag, const std::string &text,
            std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (parseUnsigned(text, max, &v) && v >= min)
        return v;
    std::string range;
    if (max != UINT64_MAX)
        range = " in [" + std::to_string(min) + ", " +
                std::to_string(max) + "]";
    else if (min > 0)
        range = " of at least " + std::to_string(min);
    std::fprintf(stderr, "error: %s expects an unsigned integer%s, got "
                         "'%s'\n",
                 flag, range.c_str(), text.c_str());
    std::exit(2);
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
 * worker pool). N must be unsigned decimal digits below 10^9; anything
 * else warns and uses 0 — or, under `--strict-args`, exits with
 * status 2.
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
    std::uint64_t n = 0;
    if (parseUnsigned(value, 999999999, &n))
        return static_cast<unsigned>(n);
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
 * Parse @p text, the value of @p flag, as a real in (0, @p max] (a
 * battery capacity, a drain threshold), or exit 2 with a diagnostic
 * whatever the strictness: a zero or malformed capacity describes no
 * battery at all.
 */
inline double
positiveReal(const char *flag, const std::string &text,
             double max = HUGE_VAL)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() && *end == '\0' && v > 0.0 && v <= max &&
        std::isfinite(v))
        return v;
    if (max == HUGE_VAL)
        std::fprintf(stderr, "error: %s expects a positive real, got '%s'\n",
                     flag, text.c_str());
    else
        std::fprintf(stderr,
                     "error: %s expects a real in (0, %g], got '%s'\n", flag,
                     max, text.c_str());
    std::exit(2);
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

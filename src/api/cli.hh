/**
 * @file
 * The one command-line parser of the bench and example drivers.
 *
 * Every driver walks its arguments once, in order, through an Args
 * cursor; the cursor owns "requires a value" and "unknown flag":
 *
 *     cli::Args args(argc, argv, "usage: tool [--fast] [--jobs N]");
 *     while (args.next()) {
 *         if (args.is("--fast"))
 *             fast = true;
 *         else if (args.is("--jobs"))
 *             jobs = args.jobsValue();
 *         else
 *             args.unknown();
 *     }
 *
 * A flag may repeat; the last occurrence wins. Every misuse exits 2 with
 * one `error:` line that names the argument and its position, then the
 * driver's usage: an unknown flag, a flag with no value, a malformed
 * value, a stray positional. Exit status across the drivers: 0 ok,
 * 1 a finding (an oracle violation, a failed check), 2 bad usage.
 *
 * The value parsers below also stand alone, for values that do not come
 * from a flag.
 */

#ifndef BBB_API_CLI_HH
#define BBB_API_CLI_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/names.hh"
#include "sim/parse.hh"

namespace bbb
{
namespace cli
{

/**
 * Parse @p text, the value of @p flag, as an unsigned decimal in
 * [@p min, @p max], or exit 2 with a diagnostic: `abc` or `5x` names no
 * count, and an unchecked strtoul would quietly run 0 or 5 of them.
 */
inline std::uint64_t
unsignedArg(const char *flag, const std::string &text,
            std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (parseUnsigned(text, &v) && v >= min && v <= max)
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
 * battery capacity, a drain threshold), or exit 2 with a diagnostic: a
 * zero or malformed capacity describes no battery at all.
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

/**
 * Parse @p text, the value of @p flag, as a switch: on/1/true or
 * off/0/false. Anything else exits 2 with a diagnostic.
 */
inline bool
onOff(const char *flag, const std::string &text)
{
    if (text == "on" || text == "1" || text == "true")
        return true;
    if (text == "off" || text == "0" || text == "false")
        return false;
    std::fprintf(stderr, "error: %s expects on|off, got '%s'\n", flag,
                 text.c_str());
    std::exit(2);
}

/**
 * One ordered pass over argv. next() steps to each argument in turn; the
 * driver matches it with is() or positional() and reads a flag's value
 * with value() or a typed *Value(), which consume the argument after
 * it. A positional argument is its own value.
 */
class Args
{
  public:
    Args(int argc, char **argv, std::string usage)
        : _argc(argc), _argv(argv), _usage(std::move(usage))
    {}

    /** Step to the next argument; false once argv is exhausted. */
    bool
    next()
    {
        _pos = ++_last;
        return _pos < _argc;
    }

    /** The current argument's text and its index in argv (from 1). */
    std::string arg() const { return _argv[_pos]; }
    int pos() const { return _pos; }

    bool
    is(const char *flag) const
    {
        return std::strcmp(_argv[_pos], flag) == 0;
    }

    bool positional() const { return _argv[_pos][0] != '-'; }

    /** The current flag's value (a positional's own text); exit 2 if none. */
    std::string
    value()
    {
        if (positional())
            return arg();
        if (_last + 1 >= _argc)
            fail("requires a value");
        return _argv[++_last];
    }

    std::uint64_t
    unsignedValue(std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
    {
        return unsignedArg(where().c_str(), value(), min, max);
    }

    double
    realValue(double max = HUGE_VAL)
    {
        return positiveReal(where().c_str(), value(), max);
    }

    /** A comma-separated list of reals, each as in realValue(). */
    std::vector<double>
    realListValue()
    {
        std::vector<double> out;
        for (const std::string &tok : splitList(value()))
            out.push_back(positiveReal(where().c_str(), tok));
        return out;
    }

    bool onOffValue() { return onOff(where().c_str(), value()); }

    /**
     * The value as a name of enum E (sim/names.hh), checked as in
     * checkNames(); @p why may narrow the vocabulary.
     */
    template <class E>
    E
    enumValue(std::string (*why)(const std::string &) = nameError<E>)
    {
        return parseName<E>(checkNames({value()}, why).front());
    }

    /** A comma-separated list of names of enum E, as in enumValue(). */
    template <class E>
    std::vector<E>
    enumListValue(std::string (*why)(const std::string &) = nameError<E>)
    {
        std::vector<E> out;
        for (const std::string &name : checkNames(splitList(value()), why))
            out.push_back(parseName<E>(name));
        return out;
    }

    /** `--jobs N`: the worker-pool width, 0 = hardware concurrency. */
    unsigned
    jobsValue()
    {
        return static_cast<unsigned>(unsignedValue(0, 999999999));
    }

    /** Exit 2 naming argument @p pos (default: the current one). */
    [[noreturn]] void
    fail(const std::string &why, int pos = 0) const
    {
        pos = pos ? pos : _pos;
        std::fprintf(stderr, "error: %s (argument %d): %s\n%s\n",
                     _argv[pos], pos, why.c_str(), _usage.c_str());
        std::exit(2);
    }

    /**
     * Exit 2 naming the current argument unless @p names holds at least
     * one name and @p why accepts each (it returns the reason a name is
     * bad, "" for a good one); returns @p names. Drivers check names here
     * so that a typo fails before anything runs, with its position.
     */
    template <class Why>
    std::vector<std::string>
    checkNames(std::vector<std::string> names, Why why) const
    {
        if (names.empty())
            fail("names nothing");
        for (const std::string &name : names)
            if (std::string bad = why(name); !bad.empty())
                fail(bad);
        return names;
    }

    [[noreturn]] void
    unknown() const
    {
        fail(positional() ? "unexpected argument" : "unknown flag");
    }

  private:
    /** How a value's diagnostic names the argument that carried it. */
    std::string
    where() const
    {
        std::string at = "argument " + std::to_string(_pos);
        return positional() ? at : arg() + " (" + at + ")";
    }

    int _argc;
    char **_argv;
    std::string _usage;
    /** The current argument, and the last one consumed (it or its value). */
    int _pos = 0, _last = 0;
};

} // namespace cli
} // namespace bbb

#endif // BBB_API_CLI_HH

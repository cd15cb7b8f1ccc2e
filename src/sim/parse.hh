/**
 * @file
 * Strict integer fields for the fault-plan and power-trace parsers.
 */

#ifndef BBB_SIM_PARSE_HH
#define BBB_SIM_PARSE_HH

#include <charconv>
#include <limits>
#include <string>
#include <type_traits>

namespace bbb
{

/**
 * Parse all of @p text as a decimal @p T into *out. Fails, leaving *out
 * as it was, on a sign, a fraction, an exponent, any other stray
 * character, or a value that @p T cannot hold.
 */
template <class T>
bool
parseUnsigned(const std::string &text, T *out)
{
    static_assert(std::is_unsigned_v<T>);
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc{} && ptr == end;
}

/** What a field that parseUnsigned<T> rejected wants: "an unsigned
 *  integer up to MAX". */
template <class T>
std::string
unsignedWant()
{
    return "an unsigned integer up to " +
           std::to_string(std::numeric_limits<T>::max());
}

} // namespace bbb

#endif // BBB_SIM_PARSE_HH

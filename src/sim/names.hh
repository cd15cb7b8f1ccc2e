/**
 * @file
 * Name vocabularies. An enum's name switch (`drainPolicyName`) is its one
 * list of tokens: no `default:`, so -Wswitch flags an unnamed enumerator,
 * and nullptr past the last one. Its values (0, 1, ... up to the first
 * nullptr: no gaps), parse and diagnostics derive from it here.
 */

#ifndef BBB_SIM_NAMES_HH
#define BBB_SIM_NAMES_HH

#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace bbb
{

/** What a token names ("drain policy") and the enum's name switch. */
template <class E>
struct NameVocab
{
    const char *what;
    const char *(*name)(E);
};

/** Specialised beside each named enum (unspecialised, it fails to link). */
template <class E>
extern const NameVocab<E> kNames;

/** Every value of @p E, in declaration order. */
template <class E>
const std::vector<E> &
nameValues()
{
    static const std::vector<E> values = [] {
        std::vector<E> v;
        for (std::underlying_type_t<E> i = 0;
             kNames<E>.name(static_cast<E>(i)); ++i)
            v.push_back(static_cast<E>(i));
        return v;
    }();
    return values;
}

/** @p items as @p text(item), joined by @p sep (cli::splitList's inverse). */
template <class Range, class Text = std::identity>
std::string
joinList(const Range &items, Text text = {}, const char *sep = ",")
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += sep;
        out += text(item);
    }
    return out;
}

/** The value named @p token, if there is one. */
template <class E>
std::optional<E>
findName(const std::string &token)
{
    for (E e : nameValues<E>())
        if (token == kNames<E>.name(e))
            return e;
    return std::nullopt;
}

/** Why @p token names no value of @p E ("" if it names one). */
template <class E>
std::string
nameError(const std::string &token)
{
    if (findName<E>(token))
        return "";
    return std::string("unknown ") + kNames<E>.what + " '" + token + "'";
}

/** The value named @p token; fatal()s, listing every name, if none. */
template <class E>
E
parseName(const std::string &token)
{
    if (std::optional<E> e = findName<E>(token))
        return *e;
    fatal("%s (want %s)", nameError<E>(token).c_str(),
          joinList(nameValues<E>(), kNames<E>.name, "|").c_str());
}

} // namespace bbb

#endif // BBB_SIM_NAMES_HH

/**
 * @file
 * Enum spelling tables. Each enum a user can type has one
 * `{spelling, value}` table next to its declaration, and parsing,
 * printing and listing its values all read that table, so no
 * spelling is typed twice.
 */

#ifndef GPULAT_COMMON_SPELLING_HH
#define GPULAT_COMMON_SPELLING_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace gpulat {

/**
 * One way to type @p value. A value's first entry in its table is
 * the one printed and listed; later entries are accepted input
 * only (legacy forms).
 */
template <typename E>
struct Spelling
{
    const char *text;
    E value;
};

/** The printed spelling of @p value: its first entry in @p table. */
template <typename E, std::size_t N>
constexpr const char *
spell(const Spelling<E> (&table)[N], E value)
{
    for (const Spelling<E> &s : table) {
        if (s.value == value)
            return s.text;
    }
    return "?";
}

/** The value @p text spells in @p table; nullopt if none. */
template <typename E, std::size_t N>
std::optional<E>
unspell(const Spelling<E> (&table)[N], std::string_view text)
{
    for (const Spelling<E> &s : table) {
        if (text == s.text)
            return s.value;
    }
    return std::nullopt;
}

/** The listed choices: each value's printed spelling, '|'-joined. */
template <typename E, std::size_t N>
std::string
spellingList(const Spelling<E> (&table)[N])
{
    std::string list;
    for (const Spelling<E> &s : table) {
        if (spell(table, s.value) != s.text)
            continue;
        if (!list.empty())
            list += '|';
        list += s.text;
    }
    return list;
}

} // namespace gpulat

#endif // GPULAT_COMMON_SPELLING_HH

/**
 * @file
 * The one grammar of every `key=value` a user types. A key is a
 * name over one member of an owner struct: a `--set` config key
 * over GpuConfig, or a workload parameter over that workload's
 * Options. The member's type decides how its value parses, prints
 * and fails, so both surfaces accept exactly the same spellings:
 *  - integers: decimal digits only, fitting the member;
 *  - reals: finite;
 *  - booleans: 1|true|on or 0|false|off;
 *  - clock ratios: M/D, M:D or M;
 *  - enums: the spellings in the enum's table (common/spelling.hh).
 * A malformed value is a FatalError that starts with the key.
 */

#ifndef GPULAT_API_KEY_HH
#define GPULAT_API_KEY_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "common/spelling.hh"
#include "engine/clocked.hh"

namespace gpulat {

/**
 * @name The number parsers of user text
 * Every integer or real a user types (keys, CLI flags) goes through
 * one of these two.
 * @{
 */

/** Decimal digits only, at most @p max: no sign, no base prefix,
 *  no spaces. nullopt on anything else. */
std::optional<std::uint64_t> parseDecimal(const std::string &text,
                                          std::uint64_t max);

/** A finite real ("0.5", "2e3", "-1"); nullopt on anything else,
 *  nan and inf included. */
std::optional<double> parseFinite(const std::string &text);

/** @} */

/** Boolean spellings; `true` and `false` are the printed ones. */
inline constexpr Spelling<bool> kBoolSpellings[] = {
    {"true", true}, {"false", false}, {"1", true},
    {"on", true},   {"0", false},     {"off", false},
};

/** A clock ratio for @p path: "M/D", "M:D" or "M", gcd-reduced. */
ClockRatio parseClockRatio(const std::string &path,
                           const std::string &text);

/** The shortest text that parses back to @p value ("1", "0.25"). */
std::string formatReal(double value);

/** @p text as a T for the key @p path; fatal() naming it otherwise. */
template <typename T>
T
parseValue(const std::string &path, const std::string &text)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (const auto v = unspell(kBoolSpellings, text))
            return *v;
        fatal(path, ": '", text, "' is not a boolean");
    } else if constexpr (std::is_same_v<T, std::string>) {
        return text;
    } else if constexpr (std::is_same_v<T, ClockRatio>) {
        return parseClockRatio(path, text);
    } else if constexpr (std::is_floating_point_v<T>) {
        const auto v = parseFinite(text);
        if (!v)
            fatal(path, ": '", text, "' is not a finite number");
        return *v;
    } else {
        static_assert(std::is_unsigned_v<T>, "unsupported key type");
        constexpr std::uint64_t max = std::numeric_limits<T>::max();
        const auto v = parseDecimal(text, max);
        if (!v) {
            fatal(path, ": '", text,
                  "' is not a decimal integer in [0, ", max, "]");
        }
        return static_cast<T>(*v);
    }
}

/** @p value formatted the way parseValue() reads it back. */
template <typename T>
std::string
formatValue(const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        return spell(kBoolSpellings, value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return value;
    } else if constexpr (std::is_same_v<T, ClockRatio>) {
        return std::to_string(value.mul) + "/" +
               std::to_string(value.div);
    } else if constexpr (std::is_floating_point_v<T>) {
        return formatReal(value);
    } else {
        return std::to_string(value);
    }
}

/** One key a user can set on an @p Owner. */
template <typename Owner>
struct Key
{
    std::string path; ///< "partition.dram.timing.tRCD", "nodes"
    std::string type; ///< the listed value type; an enum's spellings
    std::string help; ///< what a workload parameter means
    std::function<void(Owner &, const std::string &)> set;
    std::function<std::string(const Owner &)> get;
};

/**
 * The key @p path over the member @p member selects: a pointer to
 * a data member, or a generic lambda returning a reference to it.
 */
template <typename Owner, typename Member>
Key<Owner>
makeKey(std::string path, std::string type, Member member)
{
    using T = std::remove_cvref_t<std::invoke_result_t<Member, Owner &>>;
    Key<Owner> key{std::move(path), std::move(type), {}, {}, {}};
    key.set = [member, path = key.path](Owner &owner,
                                        const std::string &text) {
        std::invoke(member, owner) = parseValue<T>(path, text);
    };
    key.get = [member](const Owner &owner) {
        return formatValue(std::invoke(member, owner));
    };
    return key;
}

/** An enum key, spelled by @p table; its type lists the spellings. */
template <typename Owner, typename E, std::size_t N, typename Member>
Key<Owner>
makeKey(std::string path, const Spelling<E> (&table)[N], Member member)
{
    Key<Owner> key{std::move(path), spellingList(table), {}, {}, {}};
    key.set = [member, &table, path = key.path, type = key.type](
                  Owner &owner, const std::string &text) {
        const auto value = unspell(table, text);
        if (!value)
            fatal(path, ": '", text, "' is not ", type);
        std::invoke(member, owner) = *value;
    };
    key.get = [member, &table](const Owner &owner) -> std::string {
        return spell(table, std::invoke(member, owner));
    };
    return key;
}

} // namespace gpulat

#endif // GPULAT_API_KEY_HH

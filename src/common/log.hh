/**
 * @file
 * Error reporting helpers in the spirit of gem5's panic()/fatal().
 *
 * panic()  — simulator bug, should never happen regardless of input.
 * fatal()  — unrecoverable user error (bad config, bad kernel, ...).
 */

#ifndef GPULAT_COMMON_LOG_HH
#define GPULAT_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace gpulat {

/** Thrown by fatal(): the *user's* input made continuing impossible. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

namespace detail {

/** Concatenate stream-formattable parts into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Report an internal simulator bug; throws PanicError. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(
        detail::concat("panic: ", std::forward<Args>(args)...));
}

/** Report an unrecoverable user/config error; throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(
        detail::concat("fatal: ", std::forward<Args>(args)...));
}

/** panic() unless cond holds. */
#define GPULAT_ASSERT(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::gpulat::panic("assertion '" #cond "' failed: ",             \
                            ##__VA_ARGS__);                               \
        }                                                                 \
    } while (0)

} // namespace gpulat

#endif // GPULAT_COMMON_LOG_HH

#include "api/key.hh"

#include <charconv>
#include <cmath>
#include <numeric>

namespace gpulat {

std::optional<std::uint64_t>
parseDecimal(const std::string &text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || value > max)
        return std::nullopt;
    return value;
}

std::optional<double>
parseFinite(const std::string &text)
{
    double value = 0.0;
    const char *const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

ClockRatio
parseClockRatio(const std::string &path, const std::string &text)
{
    auto sep = text.find('/');
    if (sep == std::string::npos)
        sep = text.find(':');
    const std::string mul_s =
        sep == std::string::npos ? text : text.substr(0, sep);
    const std::string div_s =
        sep == std::string::npos ? "1" : text.substr(sep + 1);
    constexpr std::uint64_t max = std::numeric_limits<unsigned>::max();
    const auto mul = parseDecimal(mul_s, max);
    const auto div = parseDecimal(div_s, max);
    if (!mul || !div || *mul == 0 || *div == 0) {
        fatal(path, ": '", text, "' is not a clock ratio (expected ",
              "M/D, M:D or M with M,D > 0)");
    }
    // gcd-normalize: "2/4" means the same frequency as "1/2", so it
    // must format and round-trip identically (and pass the same
    // range validation) — the parsed ratio is canonical.
    const std::uint64_t g = std::gcd(*mul, *div);
    return ClockRatio{static_cast<unsigned>(*mul / g),
                      static_cast<unsigned>(*div / g)};
}

std::string
formatReal(double value)
{
    char text[32];
    const auto [end, error] =
        std::to_chars(text, text + sizeof(text), value);
    GPULAT_ASSERT(error == std::errc{}, "cannot format ", value);
    return std::string(text, end);
}

} // namespace gpulat

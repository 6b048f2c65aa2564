#include "common/stats.hh"

#include <iomanip>

namespace gpulat {

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatRegistry::dump(std::ostream &os) const
{
    std::size_t width = 0;
    for (const auto &[name, c] : counters_)
        width = std::max(width, name.size());
    for (const auto &[name, s] : scalars_)
        width = std::max(width, name.size());

    for (const auto &[name, c] : counters_) {
        os << std::left << std::setw(static_cast<int>(width + 2)) << name
           << c.value() << "\n";
    }
    for (const auto &[name, s] : scalars_) {
        os << std::left << std::setw(static_cast<int>(width + 2)) << name
           << "mean=" << s.mean() << " min=" << s.min()
           << " max=" << s.max() << " n=" << s.count() << "\n";
    }
}

} // namespace gpulat

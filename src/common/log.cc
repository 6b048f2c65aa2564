#include "common/log.hh"

#include "common/types.hh"

namespace gpulat {

const char *
toString(MemSpace space)
{
    switch (space) {
      case MemSpace::Global: return "global";
      case MemSpace::Local: return "local";
      case MemSpace::Shared: return "shared";
    }
    return "?";
}

} // namespace gpulat

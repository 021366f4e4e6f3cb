#include "obs/obs.hpp"

#include "util/env.hpp"

namespace appfl::obs {

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::kOff)};
}  // namespace detail

std::optional<Level> parse_level(const std::string& name) {
  const auto i = util::find_name(kLevelNames, name);
  if (!i) return std::nullopt;
  return static_cast<Level>(*i);
}

void set_level(Level lv) {
  detail::g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

}  // namespace appfl::obs

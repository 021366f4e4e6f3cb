#include "util/env.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace appfl::util {

std::optional<std::string> env_value(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

void warn_ignored_env(std::string_view name, std::string_view value,
                      std::string_view need) {
  std::fprintf(stderr, "warning: ignoring invalid %.*s='%.*s' (need %.*s)\n",
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(need.size()), need.data());
}

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

std::string describe_uint(std::uint64_t lo, std::uint64_t hi) {
  if (hi == std::numeric_limits<std::uint64_t>::max()) {
    if (lo == 0) return "a non-negative integer";
    if (lo == 1) return "a positive integer";
    return "an integer >= " + std::to_string(lo);
  }
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

std::optional<std::size_t> find_name(std::span<const std::string_view> names,
                                     std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return std::nullopt;
}

std::string join_names(std::span<const std::string_view> names) {
  std::string out;
  for (const std::string_view n : names) {
    if (!out.empty()) out += '|';
    out += n;
  }
  return out;
}

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi) {
  const auto text = env_value(name);
  if (!text) return std::nullopt;
  const auto v = parse_uint(*text, lo, hi);
  if (!v) warn_ignored_env(name, *text, describe_uint(lo, hi));
  return v;
}

std::optional<std::size_t> env_choice(const char* name,
                                      std::span<const std::string_view> names) {
  const auto text = env_value(name);
  if (!text) return std::nullopt;
  const auto i = find_name(names, *text);
  if (!i) warn_ignored_env(name, *text, join_names(names));
  return i;
}

}  // namespace appfl::util

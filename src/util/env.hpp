// Process-environment knobs and the strict value parsers behind them. Every
// APPFL_* variable is read through env_value (the one getenv in the
// library), and every bad value is reported by warn_ignored_env and then
// ignored: a run never fails, and never silently reads garbage as a value,
// because of the environment. The option table (core/options.hpp) and the
// process-wide kernel and log defaults share these.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace appfl::util {

/// The value of environment variable `name`. Unset and empty both give
/// nullopt: an empty value means "not set" for every APPFL_* name.
std::optional<std::string> env_value(const char* name);

/// Prints "warning: ignoring invalid NAME='VALUE' (need NEED)" to stderr.
void warn_ignored_env(std::string_view name, std::string_view value,
                      std::string_view need);

/// Decimal digits only (no sign, no blanks), within [lo, hi].
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

/// What parse_uint accepts, for messages: "a positive integer",
/// "an integer in [0, 1024]", ...
std::string describe_uint(std::uint64_t lo, std::uint64_t hi);

/// Index of `name` in `names`.
std::optional<std::size_t> find_name(std::span<const std::string_view> names,
                                     std::string_view name);

/// "a|b|c".
std::string join_names(std::span<const std::string_view> names);

/// Environment variable `name` as an integer in [lo, hi]; an invalid value
/// is warned about and gives nullopt.
std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t lo,
                                      std::uint64_t hi);

/// Environment variable `name` as an index into `names`; an invalid value
/// is warned about and gives nullopt.
std::optional<std::size_t> env_choice(const char* name,
                                      std::span<const std::string_view> names);

}  // namespace appfl::util

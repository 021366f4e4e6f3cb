// Minimal leveled logger. Thread-safe (single global mutex around emission);
// level is process-global and adjustable at runtime or via APPFL_LOG_LEVEL.
#pragma once

#include <array>
#include <sstream>
#include <string>
#include <string_view>

namespace appfl::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Level names, indexed by Level.
inline constexpr std::array<std::string_view, 5> kLevelNames = {
    "debug", "info", "warn", "error", "off"};

/// Current global log level (default Info; the process default comes from
/// APPFL_LOG_LEVEL, one of kLevelNames; an invalid value is warned about
/// and ignored).
Level level();

/// Set the global log level programmatically.
void set_level(Level lv);

/// Emit one log line (no trailing newline needed). Prefer the macros below.
void emit(Level lv, const std::string& msg);

}  // namespace appfl::log

#define APPFL_LOG_AT(lv, stream_expr)                          \
  do {                                                         \
    if (static_cast<int>(lv) >=                                \
        static_cast<int>(::appfl::log::level())) {             \
      std::ostringstream appfl_log_os_;                        \
      appfl_log_os_ << stream_expr;                            \
      ::appfl::log::emit(lv, appfl_log_os_.str());             \
    }                                                          \
  } while (0)

#define APPFL_LOG_DEBUG(s) APPFL_LOG_AT(::appfl::log::Level::kDebug, s)
#define APPFL_LOG_INFO(s) APPFL_LOG_AT(::appfl::log::Level::kInfo, s)
#define APPFL_LOG_WARN(s) APPFL_LOG_AT(::appfl::log::Level::kWarn, s)
#define APPFL_LOG_ERROR(s) APPFL_LOG_AT(::appfl::log::Level::kError, s)

#include "util/logging.hpp"

#include <iostream>
#include <mutex>

#include "util/env.hpp"

namespace appfl::log {
namespace {

Level parse_env_level() {
  const auto i = util::env_choice("APPFL_LOG_LEVEL", kLevelNames);
  return i ? static_cast<Level>(*i) : Level::kInfo;
}

const Level g_level = parse_env_level();
std::mutex g_emit_mutex;

const char* tag(Level lv) {
  switch (lv) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO ";
    case Level::kWarn: return "WARN ";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

Level level() { return g_level; }

void emit(Level lv, const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << "[appfl " << tag(lv) << "] " << msg << "\n";
}

}  // namespace appfl::log

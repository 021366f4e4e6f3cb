#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

#include "util/env.hpp"

namespace appfl::log {
namespace {

Level parse_env_level() {
  const auto i = util::env_choice("APPFL_LOG_LEVEL", kLevelNames);
  return i ? static_cast<Level>(*i) : Level::kInfo;
}

std::atomic<int> g_level{static_cast<int>(parse_env_level())};
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

Level level() { return static_cast<Level>(g_level.load(std::memory_order_relaxed)); }

void set_level(Level lv) { g_level.store(static_cast<int>(lv), std::memory_order_relaxed); }

void emit(Level lv, const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << "[appfl " << tag(lv) << "] " << msg << "\n";
}

}  // namespace appfl::log

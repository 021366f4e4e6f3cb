// Observability plane — the process-wide switch the span tracer
// (obs/trace.hpp) and the metrics registry (obs/metrics.hpp) consult before
// doing any work.
//
// Three levels:
//   kOff     — every hook is dormant. Training output is bit-identical to a
//              build without the plane (instrumentation only *reads* clocks
//              and counters; it never touches RNG streams, sim time, or the
//              wire), and the per-hook cost is one relaxed atomic load.
//   kMetrics — counters/gauges/histograms record; spans stay off.
//   kTrace   — metrics plus RAII spans into thread-local ring buffers,
//              exportable as Chrome trace_event JSON (Perfetto,
//              chrome://tracing).
//
// Compile-time kill switch: building with -DAPPFL_OBS_DISABLED pins the
// level to kOff so every guard folds to `if (false)` and the instrumented
// binary is observability-free.
#pragma once

#include <array>
#include <atomic>
#include <optional>
#include <string>
#include <string_view>

namespace appfl::obs {

enum class Level : int { kOff = 0, kMetrics = 1, kTrace = 2 };

/// Level names, indexed by Level.
inline constexpr std::array<std::string_view, 3> kLevelNames = {
    "off", "metrics", "trace"};

/// Parses one of kLevelNames; nullopt on anything else.
std::optional<Level> parse_level(const std::string& name);

namespace detail {
#if defined(APPFL_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif
extern std::atomic<int> g_level;
}  // namespace detail

inline Level level() {
  if constexpr (!detail::kCompiledIn) return Level::kOff;
  return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
}

void set_level(Level lv);

inline bool metrics_on() { return level() >= Level::kMetrics; }
inline bool trace_on() { return level() >= Level::kTrace; }

}  // namespace appfl::obs

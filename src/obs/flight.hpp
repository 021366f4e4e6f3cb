// Flight recorder — the run's black box.
//
// A bounded ring of recent structured events (round transitions, faults,
// secure-agg degrades, checkpoint ops) that is recorded whenever the obs
// level is kMetrics or above — cheaper than tracing, always on in any
// observed run. On a trigger (secure-agg degraded round, unfillable gather,
// fatal signal, std::terminate) the ring plus a metrics-registry snapshot
// is dumped to a timestamped JSON file in the configured directory, so a
// chaos run that dies or degrades leaves a parseable record of its last
// moments even when nobody was streaming metrics.
//
// Dumping requires a directory (set_dump_dir; --flight-dir / a
// APPFL_OBS_FLIGHT_DIR override). Recording without a directory still fills
// the ring — ObsSession can embed it in the summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace appfl::obs {

struct FlightEvent {
  double wall_s = 0.0;  // seconds since the recorder's epoch (steady clock)
  const char* kind = "";  // string literal, e.g. "round.start", "secagg.degraded"
  std::string data;  // pre-rendered JSON object ("{}" when empty)
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event (overwrites the oldest when full). `kind` must be a
  /// string literal; `data` must be a rendered JSON object or empty.
  /// Callers gate on obs::metrics_on() — record() itself never checks.
  void record(const char* kind, std::string data = {});

  /// Where dump files go; "" disables dumping (the default).
  void set_dump_dir(const std::string& dir);

  /// Writes `flight-<utc-timestamp>-<seq>-<reason>.json` into the dump dir:
  /// the ring (oldest first), the trigger reason, and a metrics-registry
  /// snapshot. Returns false when no dir is set or the write failed; on
  /// success *path_out (if given) receives the file path. Best-effort and
  /// exception-free — safe to call from a terminate handler.
  bool dump(const std::string& reason, std::string* path_out = nullptr);

  /// Installs fatal-signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) and
  /// std::terminate hooks that dump the global recorder, then re-raise /
  /// chain to the previous handler. Each crash leaves one dump: terminate
  /// dumps as "terminate" and its abort is not dumped again. Idempotent;
  /// hooks only fire when a dump dir is set.
  static void install_crash_hooks();

  /// Snapshot of the ring, oldest first.
  std::vector<FlightEvent> events() const;
  std::uint64_t recorded() const;

  void clear();

  static FlightRecorder& global();

  static constexpr std::size_t kDefaultCapacity = 256;

 private:
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::string dump_dir_;
  std::uint64_t dump_seq_ = 0;
};

/// The one-line hook call sites use: records into the global ring iff the
/// obs level is kMetrics or above (one relaxed atomic load when off).
inline void flight_record(const char* kind, std::string data = {}) {
  if (metrics_on()) FlightRecorder::global().record(kind, std::move(data));
}

}  // namespace appfl::obs

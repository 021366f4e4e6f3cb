#include "obs/flight.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <csignal>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace appfl::obs {

namespace {

// mkdir -p without <filesystem>: plain ::mkdir is usable from the crash
// handlers, which std::filesystem (allocations, exceptions) is not.
void make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      ::mkdir(path.substr(0, i).c_str(), 0755);  // EEXIST is fine
    }
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

void FlightRecorder::record(const char* kind, std::string data) {
  FlightEvent e;
  e.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch_)
                 .count();
  e.kind = kind;
  e.data = std::move(data);
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
  }
  head_ = (head_ + 1) % capacity_;
  ++total_;
}

void FlightRecorder::set_dump_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dump_dir_ = dir;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  const std::size_t n = ring_.size();
  const std::size_t start = total_ > capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % n]);
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

bool FlightRecorder::dump(const std::string& reason, std::string* path_out) {
  // Snapshot under try_lock: a crash while the recording thread held the
  // mutex must not deadlock the handler — dump what we can, which is at
  // minimum the reason and the metrics snapshot.
  std::vector<FlightEvent> events;
  std::string dir;
  std::uint64_t total = 0;
  std::uint64_t seq = 0;
  {
    const bool locked = mutex_.try_lock();
    dir = dump_dir_;
    if (locked) {
      const std::size_t n = ring_.size();
      const std::size_t start = total_ > capacity_ ? head_ : 0;
      events.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        events.push_back(ring_[(start + i) % n]);
      }
      total = total_;
      seq = dump_seq_++;
      mutex_.unlock();
    }
  }
  if (dir.empty()) return false;
  make_dirs(dir);

  // UTC wall-clock timestamp in the filename so dumps sort and never
  // collide across runs; the per-process seq breaks same-second ties.
  char stamp[32] = "unknown-time";
  const std::time_t now = std::time(nullptr);
  if (struct tm tm_utc; gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%SZ", &tm_utc);
  }
  // Reasons become filename fragments: keep them path-safe.
  std::string slug = reason;
  for (char& c : slug) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  const std::string path =
      dir + "/flight-" + stamp + "-" + std::to_string(seq) + "-" + slug +
      ".json";

  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr,
                 "warning: flight recorder cannot write '%s'\n", path.c_str());
    return false;
  }
  out << "{\"type\":\"flight\",\"reason\":\"" << json_escape(reason)
      << "\",\"events_recorded\":" << total << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"t_s\":" << json_number(e.wall_s) << ",\"kind\":\""
        << json_escape(e.kind) << "\",\"data\":"
        << (e.data.empty() ? "{}" : e.data) << "}";
  }
  out << "\n],\"metrics\":"
      << metrics_snapshot_json(MetricsRegistry::global().snapshot()) << "}\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "warning: flight dump to '%s' failed\n", path.c_str());
    return false;
  }
  if (path_out != nullptr) *path_out = path;
  return true;
}

namespace {

std::terminate_handler g_prev_terminate = nullptr;

void flight_terminate_handler() {
  FlightRecorder::global().dump("terminate");
  // The chained handler aborts; SIGABRT's default action keeps that abort
  // from dumping a second time as "sigabrt".
  std::signal(SIGABRT, SIG_DFL);
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void flight_signal_handler(int sig) {
  // Not strictly async-signal-safe, but this process is already dying — a
  // best-effort black-box write is the whole point (try_lock above keeps
  // the one real deadlock risk out).
  const char* name = "signal";
  switch (sig) {
    case SIGSEGV: name = "sigsegv"; break;
    case SIGABRT: name = "sigabrt"; break;
    case SIGBUS: name = "sigbus"; break;
    case SIGFPE: name = "sigfpe"; break;
    case SIGILL: name = "sigill"; break;
  }
  FlightRecorder::global().dump(name);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::install_crash_hooks() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  g_prev_terminate = std::set_terminate(flight_terminate_handler);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, flight_signal_handler);
  }
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

}  // namespace appfl::obs

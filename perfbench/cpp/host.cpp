// Host probes and small statistics helpers.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

StealSample read_steal() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  StealSample s;
  if (!(in >> label) || label != "cpu") return s;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return StealSample{};
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double steal_frac(const StealSample& a, const StealSample& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string digest(const std::vector<float>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (float f : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench

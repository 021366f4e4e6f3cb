#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace appfl::obs {

namespace detail {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace detail

namespace {

/// Adds `v` to an atomic double (CAS loop; fetch_add on double is C++20 but
/// not on every libstdc++ this repo targets).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

Histogram::Histogram(std::string name, double min, double max,
                     std::size_t buckets)
    : name_(std::move(name)) {
  APPFL_CHECK_MSG(min >= 0.0 && max > min,
                  "histogram '" << name_ << "' needs 0 <= min < max");
  APPFL_CHECK_MSG(buckets >= 1 && buckets <= kMaxHistogramBuckets,
                  "histogram '" << name_ << "' bucket count " << buckets
                                << " outside [1, " << kMaxHistogramBuckets
                                << "]");
  bounds_.resize(buckets + 1);
  if (min == 0.0) {
    // Zero-anchored mode: bucket 0 is exactly [0, 1) and the remaining
    // buckets are geometric from 1 to max. A log-scale ladder cannot start
    // at 0, but integer-valued signals (update staleness, retry counts)
    // have 0 as a — often modal — legitimate value that must stay visible
    // in the export rather than leak into an underflow bucket.
    APPFL_CHECK_MSG(max > 1.0, "histogram '" << name_
                                             << "' zero-anchored needs max > 1");
    APPFL_CHECK_MSG(buckets >= 2, "histogram '"
                                      << name_
                                      << "' zero-anchored needs >= 2 buckets");
    const double step = std::log(max) / static_cast<double>(buckets - 1);
    for (std::size_t i = 1; i <= buckets; ++i) {
      bounds_[i] = std::exp(step * static_cast<double>(i - 1));
    }
    bounds_[0] = 0.0;
    bounds_[1] = 1.0;
  } else {
    const double log_min = std::log(min);
    const double step =
        (std::log(max) - log_min) / static_cast<double>(buckets);
    for (std::size_t i = 0; i <= buckets; ++i) {
      bounds_[i] = std::exp(log_min + step * static_cast<double>(i));
    }
    bounds_.front() = min;
  }
  // Pin the ends exactly so bucket_index(min)==0 and >=max overflows by
  // comparison, not by floating-point luck.
  bounds_.back() = max;
}

std::size_t Histogram::bucket_index(double v) const {
  if (!(v > bounds_.front())) return 0;  // underflow and NaN
  if (v >= bounds_.back()) return num_buckets() - 1;
  // First boundary strictly greater than v starts the *next* bucket.
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin()) - 1;
}

void Histogram::record(double v) {
  Cell& cell = cells_[detail::thread_shard()];
  cell.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(cell.sum, std::isfinite(v) ? v : 0.0);
}

void Histogram::reset() {
  for (auto& cell : cells_) {
    for (auto& c : cell.counts) c.store(0, std::memory_order_relaxed);
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0.0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile_upper_bound(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (static_cast<double>(cum) >= target) return bounds[i + 1];
  }
  return bounds.back();
}

const std::uint64_t* MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter(name));
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(name));
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double min,
                                      double max, std::size_t buckets) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram(name, min, max, buckets));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds_;
    hs.buckets.assign(h->num_buckets(), 0);
    for (const auto& cell : h->cells_) {
      for (std::size_t i = 0; i < hs.buckets.size(); ++i) {
        hs.buckets[i] += cell.counts[i].load(std::memory_order_relaxed);
      }
      hs.count += cell.count.load(std::memory_order_relaxed);
      hs.sum += cell.sum.load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;  // std::map iteration is already name-sorted
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace appfl::obs

// MetricsRegistry — named counters, gauges, and fixed-bucket log-scale
// histograms for the observability plane.
//
// Hot-path contract: an update is a handful of relaxed atomic ops on a
// cache line owned (statistically) by the calling thread. Every instrument
// shards its cells kShards ways; a thread is pinned to one shard on first
// use, so concurrent writers from the runner's client pool and the kernel
// pool do not bounce a shared line. Reads (value()/snapshot()) merge the
// shards — sums of unsigned counters are associative, so the merged value
// is deterministic regardless of thread interleaving.
//
// Registration (name → instrument) takes a mutex and is meant to happen
// once per call site (cache the returned reference, or use a function-local
// static). Instruments are never deleted: references stay valid for the
// registry's lifetime, and reset() zeroes values in place.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace appfl::obs {

inline constexpr std::size_t kShards = 16;
inline constexpr std::size_t kMaxHistogramBuckets = 64;

namespace detail {
/// Stable shard index of the calling thread in [0, kShards).
std::size_t thread_shard();
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t v) {
    cells_[detail::thread_shard()].v.fetch_add(v, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  std::uint64_t value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

  std::string name_;
  std::array<detail::CounterCell, kShards> cells_;
};

/// Last-write-wins scalar (no sharding — a gauge is a point sample).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-count log-scale histogram over (0, ∞). Bucket i covers
/// [bound(i), bound(i+1)) with geometrically spaced boundaries from `min`
/// to `max`; values below min land in bucket 0, values at or above max in
/// the last bucket (both still counted — nothing is dropped). Boundaries
/// are precomputed once and indexed by binary search, so record() and the
/// snapshot agree bit-for-bit on every edge.
///
/// Zero-anchored mode: with `min == 0` (needs max > 1 and >= 2 buckets),
/// bucket 0 covers exactly [0, 1) and the remaining buckets run
/// geometrically from 1 to `max` — for integer-valued signals like update
/// staleness whose modal value 0 must appear in the export, not in an
/// underflow bucket.
class Histogram {
 public:
  void record(double v);
  std::size_t num_buckets() const { return bounds_.size() - 1; }
  /// Inclusive lower / exclusive upper boundary of bucket i.
  double lower_bound(std::size_t i) const { return bounds_[i]; }
  double upper_bound(std::size_t i) const { return bounds_[i + 1]; }
  /// The bucket record(v) lands in (NaN and underflow map to 0).
  std::size_t bucket_index(double v) const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  friend struct HistogramSnapshot;
  Histogram(std::string name, double min, double max, std::size_t buckets);
  void reset();

  std::string name_;
  std::vector<double> bounds_;  // buckets + 1 boundaries
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kMaxHistogramBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::array<Cell, kShards> cells_;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;           // buckets + 1 boundaries
  std::vector<std::uint64_t> buckets;   // merged across shards
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Upper boundary of the bucket holding the q-quantile (q in [0,1]);
  /// 0 when the histogram is empty.
  double quantile_upper_bound(double q) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;           // name-sorted
  std::vector<HistogramSnapshot> histograms;                    // name-sorted

  const std::uint64_t* counter(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. References remain valid for the
  /// registry's lifetime (instruments are never destroyed, reset() zeroes in
  /// place). Re-requesting a histogram with different bounds keeps the
  /// original layout.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, double min, double max,
                       std::size_t buckets);

  /// Deterministic (name-sorted) merged view of every instrument.
  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument in place; cached references stay valid.
  void reset();

  /// The process-wide registry the instrumentation hooks write to.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace appfl::obs

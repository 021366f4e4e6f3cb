// Observability plane: histogram bucket arithmetic, cross-thread merge
// determinism, tracer ring overflow, trace JSON well-formedness under
// concurrent emission, the test_accuracy −1 sentinel contract, and the
// level/env plumbing.
#include <gtest/gtest.h>

#include "json_check.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "util/check.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace obs = appfl::obs;

namespace {

using appfl::testutil::json_well_formed;

/// RAII level guard so a test can't leak an enabled plane into the suite.
struct LevelGuard {
  explicit LevelGuard(obs::Level lv) : prev(obs::level()) {
    obs::set_level(lv);
  }
  ~LevelGuard() { obs::set_level(prev); }
  obs::Level prev;
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

// ---------------------------------------------------------------- level ----

TEST(ObsLevel, Parse) {
  EXPECT_EQ(obs::parse_level("off"), obs::Level::kOff);
  EXPECT_EQ(obs::parse_level("metrics"), obs::Level::kMetrics);
  EXPECT_EQ(obs::parse_level("trace"), obs::Level::kTrace);
  EXPECT_FALSE(obs::parse_level("verbose").has_value());
  EXPECT_FALSE(obs::parse_level("").has_value());
}

TEST(ObsLevel, GuardsFollowLevel) {
  LevelGuard guard(obs::Level::kOff);
  EXPECT_FALSE(obs::metrics_on());
  EXPECT_FALSE(obs::trace_on());
  if (!obs::detail::kCompiledIn) {
    // -DAPPFL_OBS_DISABLED pins the plane off; set_level must be a no-op.
    obs::set_level(obs::Level::kTrace);
    EXPECT_FALSE(obs::metrics_on());
    EXPECT_FALSE(obs::trace_on());
    return;
  }
  obs::set_level(obs::Level::kMetrics);
  EXPECT_TRUE(obs::metrics_on());
  EXPECT_FALSE(obs::trace_on());
  obs::set_level(obs::Level::kTrace);
  EXPECT_TRUE(obs::trace_on());
}

TEST(ObsLevel, EnvOverridesFollowWarnAndIgnoreConvention) {
  appfl::core::RunConfig cfg;
  cfg.obs_level = "metrics";
  setenv("APPFL_OBS_LEVEL", "bogus", 1);
  cfg = appfl::core::with_env_overrides(cfg);
  // invalid value ignored
  EXPECT_EQ(obs::parse_level(cfg.obs_level), obs::Level::kMetrics);

  setenv("APPFL_OBS_LEVEL", "trace", 1);
  cfg = appfl::core::with_env_overrides(cfg);
  EXPECT_EQ(obs::parse_level(cfg.obs_level), obs::Level::kTrace);
  unsetenv("APPFL_OBS_LEVEL");
}

TEST(ObsLevel, InconsistentOutputPathsAreCleared) {
  appfl::core::RunConfig cfg;
  cfg.obs_level = "metrics";
  cfg.trace_out = "t.json";  // trace file below trace level: cleared
  cfg = appfl::core::with_env_overrides(cfg);
  EXPECT_TRUE(cfg.trace_out.empty());

  cfg.obs_level = "off";
  cfg.metrics_out = "m.jsonl";
  cfg = appfl::core::with_env_overrides(cfg);
  EXPECT_TRUE(cfg.metrics_out.empty());
}

TEST(ObsConfig, ValidateRejectsBadLevelAndOrphanPaths) {
  appfl::core::RunConfig cfg;
  cfg.obs_level = "loud";
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg.obs_level = "metrics";
  cfg.trace_out = "t.json";  // needs trace
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg.trace_out.clear();
  cfg.metrics_out = "m.jsonl";
  EXPECT_NO_THROW(cfg.validate());
  cfg.obs_level = "off";
  EXPECT_THROW(cfg.validate(), appfl::Error);
}

// ------------------------------------------------------------ histogram ----

TEST(ObsHistogram, BucketBoundariesAreConsistentWithIndexing) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h", 1e-3, 1e3, 24);
  ASSERT_EQ(h.num_buckets(), 24u);
  // Boundary pinning: the first lower bound and last upper bound are the
  // requested min/max exactly.
  EXPECT_DOUBLE_EQ(h.lower_bound(0), 1e-3);
  EXPECT_DOUBLE_EQ(h.upper_bound(23), 1e3);
  // bucket_index agrees with the boundary arrays on EVERY edge: a value
  // exactly at lower_bound(i) must land in bucket i.
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_index(h.lower_bound(i)), i) << "bucket " << i;
    const double mid = h.lower_bound(i) * 1.0001;
    EXPECT_EQ(h.bucket_index(mid), i) << "bucket " << i;
  }
  // Underflow, overflow, and NaN are all counted, never dropped.
  EXPECT_EQ(h.bucket_index(1e-9), 0u);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(1e9), h.num_buckets() - 1);
  EXPECT_EQ(h.bucket_index(1e3), h.num_buckets() - 1);  // max is inclusive
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);
}

TEST(ObsHistogram, ZeroAnchoredModeCoversZeroInAVisibleBucket) {
  // min == 0 lays out bucket 0 as exactly [0, 1) with a geometric ladder
  // from 1 to max behind it — integer signals (staleness) keep their modal
  // zero in the export instead of an underflow bucket.
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("staleness", 0.0, 1024.0, 25);
  ASSERT_EQ(h.num_buckets(), 25u);
  EXPECT_DOUBLE_EQ(h.lower_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(24), 1024.0);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.99), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 1u);
  EXPECT_EQ(h.bucket_index(1024.0), 24u);
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);
  h.record(0.0);
  h.record(0.0);
  h.record(3.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("staleness");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->buckets[0], 2u);
  EXPECT_EQ(hs->count, 3u);
  // Zero-anchored needs a >1 max and >= 2 buckets; degenerate layouts throw.
  EXPECT_THROW(reg.histogram("bad0", 0.0, 0.5, 8), appfl::Error);
  EXPECT_THROW(reg.histogram("bad1", 0.0, 64.0, 1), appfl::Error);
}

TEST(ObsHistogram, RecordAndSnapshotAgree) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", 1e-6, 10.0, 16);
  h.record(1e-7);  // underflow
  h.record(0.5);
  h.record(0.5);
  h.record(100.0);  // overflow
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 4u);
  EXPECT_EQ(hs->buckets[0], 1u);
  EXPECT_EQ(hs->buckets[h.bucket_index(0.5)], 2u);
  EXPECT_EQ(hs->buckets[15], 1u);
  EXPECT_NEAR(hs->sum, 1e-7 + 0.5 + 0.5 + 100.0, 1e-12);
  EXPECT_GT(hs->quantile_upper_bound(0.5), 0.5);
}

TEST(ObsHistogram, CrossThreadMergeIsDeterministic) {
  // N threads each record a known multiset; the merged snapshot must be the
  // exact same totals regardless of interleaving, every time.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  for (int trial = 0; trial < 3; ++trial) {
    obs::MetricsRegistry reg;
    obs::Histogram& h = reg.histogram("m", 1e-3, 1e3, 32);
    obs::Counter& c = reg.counter("n");
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, &c, t] {
        for (int i = 0; i < kPerThread; ++i) {
          h.record(1e-3 * static_cast<double>((t * kPerThread + i) % 997 + 1));
          c.add(2);
        }
      });
    }
    for (auto& th : threads) th.join();
    const obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot* hs = snap.histogram("m");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
    const std::uint64_t* n = snap.counter("n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(*n, static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : hs->buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, hs->count);  // nothing dropped, nothing doubled
  }
}

TEST(ObsRegistry, ResetKeepsReferencesValid) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(3);  // the cached reference still works after reset
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

// --------------------------------------------------------------- tracer ----

TEST(ObsTracer, RingOverflowDropsOldestAndCounts) {
  LevelGuard guard(obs::Level::kTrace);
  obs::Tracer tracer(8);
  for (std::uint64_t i = 0; i < 11; ++i) {
    obs::SpanRecord r;
    r.name = "s";
    r.cat = "t";
    r.wall_start_s = static_cast<double>(i);
    tracer.emit(r);
  }
  EXPECT_EQ(tracer.emitted(), 11u);
  EXPECT_EQ(tracer.dropped(), 3u);
  const auto records = tracer.collect();
  ASSERT_EQ(records.size(), 8u);
  // The oldest three were overwritten; the retained ones are in order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].wall_start_s, static_cast<double>(i + 3));
  }
  tracer.clear();
  EXPECT_EQ(tracer.emitted(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.collect().empty());
}

TEST(ObsTracer, ConcurrentEmitMergesEveryThreadsSpans) {
  LevelGuard guard(obs::Level::kTrace);
  obs::Tracer tracer(1 << 12);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::SpanRecord r;
        r.name = "work";
        r.cat = "test";
        r.wall_start_s = tracer.now();
        tracer.emit(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto records = tracer.collect();
  EXPECT_EQ(records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // collect() orders by wall start.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].wall_start_s, records[i].wall_start_s);
  }
}

TEST(ObsTracer, ScopedSpanIsInertWhenOff) {
  LevelGuard guard(obs::Level::kOff);
  obs::Tracer::global().clear();
  {
    obs::ScopedSpan span("noop", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(obs::Tracer::global().emitted(), 0u);
}

// ------------------------------------------------------------- exporter ----

TEST(ObsExport, TraceJsonWellFormedUnderConcurrentSpans) {
  const std::string path = temp_path("appfl_obs_trace_test.json");
  {
    LevelGuard guard(obs::Level::kTrace);
    obs::Tracer tracer(1 << 10);
    std::atomic<bool> stop{false};
    // Writers keep emitting (with args, sim times, and escapable names)
    // while the exporter snapshots — the output must still be valid JSON.
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&] {
        while (!stop.load()) {
          obs::SpanRecord r;
          r.name = "phase \"q\"\n";
          r.cat = "test\\cat";
          r.wall_start_s = tracer.now();
          r.wall_dur_s = 0.001;
          r.sim_start_s = 1.5;
          r.sim_dur_s = 0.25;
          r.arg_name = "client";
          r.arg = 7;
          tracer.emit(r);
        }
      });
    }
    // Export only once spans exist — the export still overlaps live
    // emission, which is what this test exercises.
    while (tracer.emitted() < 64) std::this_thread::yield();
    std::string error;
    ASSERT_TRUE(obs::write_chrome_trace(tracer, path, &error)) << error;
    stop.store(true);
    for (auto& w : writers) w.join();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_TRUE(json_well_formed(text)) << "exported trace is not valid JSON";
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"sim_ts_s\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObsExport, JsonHelpersHandleSentinelsAndSpecials) {
  EXPECT_EQ(obs::json_optional(-1.0), "null");  // skipped-validation sentinel
  EXPECT_EQ(obs::json_optional(0.25), obs::json_number(0.25));
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ObsExport, MetricsSnapshotJsonIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.counter("c\"quoted").add(3);
  reg.gauge("g").set(1.25);
  reg.histogram("h", 1e-3, 1.0, 8).record(0.1);
  const std::string json = obs::metrics_snapshot_json(reg.snapshot());
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"type\":\"metrics\""), std::string::npos);
}

// -------------------------------------------- the −1 accuracy sentinel ----

TEST(ObsSentinel, SkippedValidationRoundsNeverEnterAverages) {
  appfl::core::RunResult result;
  appfl::core::RoundMetrics m;
  m.test_accuracy = -1.0;  // skipped
  result.rounds.push_back(m);
  m.test_accuracy = 0.5;
  result.rounds.push_back(m);
  m.test_accuracy = 0.9;
  result.rounds.push_back(m);
  // The sentinel must not drag the mean down (a naive mean would be 0.1333).
  EXPECT_DOUBLE_EQ(result.mean_test_accuracy(), 0.7);
  EXPECT_DOUBLE_EQ(result.best_test_accuracy(), 0.9);

  appfl::core::RunResult all_skipped;
  all_skipped.rounds.push_back(appfl::core::RoundMetrics{});
  all_skipped.rounds.back().test_accuracy = -1.0;
  // No validated round: the helpers return the sentinel, which exporters
  // render as null — never as a numeric zero.
  EXPECT_DOUBLE_EQ(all_skipped.mean_test_accuracy(), -1.0);
  EXPECT_DOUBLE_EQ(all_skipped.best_test_accuracy(), -1.0);
  EXPECT_EQ(obs::json_optional(all_skipped.mean_test_accuracy()), "null");
}

// Shared declarations of the round benchmark (round_bench).
//
// The benchmark runs one workload through the framework's public runners
// (run_federated, run_async, run_population) and prints one JSON result
// line. Everything is measured from outside the framework: the benchmark times
// its own calls, stamps sync round boundaries through a forwarding server,
// and reads the spans the framework already emits at obs_level=trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "data/synth.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace core = appfl::core;
namespace data = appfl::data;

// ---- host and timing --------------------------------------------------------

/// Steady-clock seconds since an arbitrary process-wide origin.
double now_s();
/// Process CPU seconds (user + sys, all threads) from getrusage.
double cpu_s();
/// VmHWM of this process in MiB (0 where /proc is unavailable).
double peak_rss_mb();
/// CPUs in this process's affinity mask.
std::size_t affinity_cpus();
/// Host-wide steal ticks (sum over CPUs) and all ticks, from /proc/stat.
struct StealSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
StealSample read_steal();
/// Steal share of all host ticks between two samples (0 when unavailable).
double steal_frac(const StealSample& a, const StealSample& b);

double median(std::vector<double> v);
/// Value at quantile q in [0, 1] (linear interpolation between ranks).
double quantile(std::vector<double> v, double q);

/// FNV-1a over the bit patterns of a parameter vector, as 16 hex digits.
std::string digest(const std::vector<float>& params);

// ---- workloads ---------------------------------------------------------------

enum class Runner { kSync, kAsync, kPopulation };

/// What one episode (inputs → set-up → fixed round budget → final model)
/// measured. A run repeats episodes until its time budget is spent.
struct Episode {
  double setup_s = 0.0;  // workload start → first round
  double synth_s = 0.0;  // seeded input generation inside setup_s
  std::vector<double> round_wall;  // steady-state rounds (warm-up excluded)
  std::vector<double> round_cpu;   // process CPU seconds of the same rounds
  double loop_wall_s = 0.0;        // wall of all rounds, warm-up included
  std::size_t rounds = 0;          // rounds (sync, population) or commits
  double tta_s = -1.0;             // −1: target never reached
  std::vector<double> acc_curve;   // validation accuracies in order
  double final_acc = 0.0;
  std::vector<float> final_params;
  // Client updates the run set out to deliver, and those it lost.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t applied = 0;
  // Traffic and fault counters over the whole episode.
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t events = 0;  // population engine events
};

/// FedBuff arrivals per commit in the async workload.
constexpr std::size_t kFedBuffK = 4;

struct Workload {
  const char* name;
  Runner runner;
  double tta_target;  // validation accuracy that stops the tta_s clock
  double acc_floor;   // smallest acceptable final_acc
  /// Runs one episode on inputs generated from `seed` at observability
  /// level `obs` ("off" for end-to-end runs, "trace" for the traced run).
  Episode (*run)(const Workload& w, std::uint64_t seed, bool smoke,
                 const std::string& obs);
  /// Set-up alone (inputs, model, clients, server), in seconds; null where
  /// episodes are short enough to give every run several set-ups.
  double (*setup_only)(const Workload& w, std::uint64_t seed, bool smoke);
  /// The run config and inputs the episodes and the per-layer replay use.
  core::RunConfig (*config)(bool smoke);
  data::FederatedSplit (*inputs)(std::uint64_t seed, bool smoke);
};

/// Smoke-size runs are too short to learn: their tta clock stops at the
/// first validation and their final_acc has no floor.
inline double tta_target(const Workload& w, bool smoke) {
  return smoke ? 0.0 : w.tta_target;
}
inline double acc_floor(const Workload& w, bool smoke) {
  return smoke ? 0.0 : w.acc_floor;
}

const std::vector<Workload>& workloads();
/// The population-tree workload's population recipe (the replay
/// materializes shards from it).
data::FemnistSpec population_spec(std::uint64_t seed, bool smoke);
const Workload* find_workload(const std::string& name);

// ---- per-layer analysis --------------------------------------------------------

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Phase and span statistics of one traced episode.
struct SpanStats {
  std::vector<Metric> metrics;
  double attributed_frac = 0.0;  // named-phase share of traced round wall
  double traced_round_s = 0.0;
  // Per-round call counts the replay is scaled by.
  double batches_per_round = 0.0;
  double uplinks_per_round = 0.0;    // encoded uplink messages
  double downlinks_per_round = 0.0;  // encoded broadcast messages
  double participants_per_round = 0.0;  // updates one aggregation reduces
};

SpanStats analyze_spans(const Workload& w,
                        const std::vector<appfl::obs::SpanRecord>& spans,
                        const Episode& traced);

/// Times the public entry points below client.batch on the workload's own
/// model, batch and message sizes, scaled to seconds per round.
std::vector<Metric> replay(const Workload& w, std::uint64_t seed, bool smoke,
                           const SpanStats& counts);

}  // namespace perfbench

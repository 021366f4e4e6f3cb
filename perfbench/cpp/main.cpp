// round_bench — runs one benchmark workload and prints its metrics.
//
//   round_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--git-sha <sha>]
//
// --trace 0 repeats seeded episodes (inputs → set-up → fixed rounds → final
// model) with observability off until --seconds are spent and prints the
// end-to-end metrics. --trace 1 runs one untraced and one traced episode on
// the seed's inputs and prints the per-layer metrics. Every episode's output
// is checked; the last stdout line is the JSON result, and the exit code is
// non-zero when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "rng/rng.hpp"
#include "tensor/accumulate.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "round_bench: %s\nusage: round_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--git-sha <sha>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--git-sha") o.git_sha = value();
    else if (a == "--smoke") o.smoke = true;
    else usage(("unknown flag " + a).c_str());
  }
  if (find_workload(o.workload) == nullptr) usage("unknown workload");
  return o;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Checks one episode's outputs; appends a reason per failed check.
void check_episode(const Workload& w, bool smoke, const Episode& e,
                   std::vector<std::string>& problems) {
  bool finite = !e.final_params.empty();
  for (float f : e.final_params) finite = finite && std::isfinite(f);
  if (!finite) problems.push_back("final parameters are not finite");
  if (!(e.final_acc >= acc_floor(w, smoke))) {
    problems.push_back("final_acc " + json_num(e.final_acc) + " below floor " +
                       json_num(acc_floor(w, smoke)));
  }
  if (e.applied + e.failed != e.attempted) {
    problems.push_back("applied + failed updates != attempted updates");
  }
  if (e.rounds == 0 || e.round_wall.empty()) problems.push_back("no timed rounds");
}

/// Seed of episode k of a run: episode 0 uses the run's seed itself, so its
/// final model (and digest) is a function of --seed alone.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : appfl::rng::derive_seed(seed, {0xBE7C, k});
}

void print_env(const Options& o, double steal) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cpus = affinity_cpus();
  const std::size_t kpool = appfl::tensor::kernel_pool()->size();
  const std::size_t cpool = appfl::util::ThreadPool::default_threads();
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"git_sha\": %s, "
      "\"hardware_concurrency\": %zu, \"affinity_cpus\": %zu, "
      "\"kernel_pool_threads\": %zu, \"client_pool_threads\": %zu, "
      "\"pools_exceed_cpus\": %s, \"gemm_avx2\": %s, \"accumulate_avx2\": %s, "
      "\"host_steal_frac\": %s}}\n",
      json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      json_str(o.git_sha).c_str(), hw, cpus, kpool, cpool,
      (kpool > cpus || cpool > cpus) ? "true" : "false",
      appfl::tensor::gemm_uses_avx2() ? "true" : "false",
      appfl::tensor::accumulate_uses_avx2() ? "true" : "false",
      json_num(steal).c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": "
       << json_num(metrics[i].value) << ", \"unit\": " << json_str(metrics[i].unit)
       << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

/// Highest percentile with at least ten samples beyond it (the maximum when
/// there are fewer than eleven samples).
double tail(const std::vector<double>& v) {
  if (v.size() < 11) return quantile(v, 1.0);
  return quantile(v, 1.0 - 10.0 / static_cast<double>(v.size()));
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
};

/// One episode plus its checks; a tta target never reached is one failed
/// attempt of the tta measurement.
Episode run_checked(const Workload& w, std::uint64_t seed, bool smoke,
                    const char* obs, Totals& t) {
  Episode e = w.run(w, seed, smoke, obs);
  check_episode(w, smoke, e, t.problems);
  std::string curve, walls;
  for (double a : e.acc_curve) curve += " " + json_num(a);
  for (double r : e.round_wall) walls += " " + json_num(r);
  std::fprintf(stderr,
               "episode seed=%llu obs=%s setup=%.3f synth=%.3f loop=%.3f rounds=%zu "
               "tta=%.3f final_acc=%.4f\n  round walls:%s\n  validations:%s\n",
               static_cast<unsigned long long>(seed), obs, e.setup_s, e.synth_s,
               e.loop_wall_s, e.rounds, e.tta_s, e.final_acc, walls.c_str(),
               curve.c_str());
  t.attempted += e.attempted + 1;
  t.failed += e.failed + (e.tta_s < 0.0 ? 1 : 0);
  return e;
}

int run_end_to_end(const Workload& w, const Options& o, const StealSample& s0) {
  Totals t;
  std::vector<Episode> eps;
  const double start = now_s();
  // Stop before another episode would overrun the budget. Every timing is
  // a median over the whole run, so the more samples a run has, the less a
  // burst of host load moves it. Workloads whose episodes are too long for
  // three per run top the set-up sample up with set-ups alone. The first two
  // set-ups in a process run on a cold heap (sync-iiadmm-dp: about 0.5 and
  // 0.35 s, later ones 0.16 s); with five or more per run they are its slow
  // tail, not its median.
  constexpr std::size_t kSetups = 3;
  const std::size_t min_episodes = w.setup_only != nullptr ? 1 : kSetups;
  while (true) {
    const double e0 = now_s();
    eps.push_back(run_checked(w, episode_seed(o.seed, eps.size()), o.smoke, "off", t));
    const double took = now_s() - e0;
    if (eps.size() >= min_episodes && now_s() - start + took > o.seconds) break;
  }
  std::vector<double> setup, rounds, cpu, tta;
  for (const Episode& e : eps) {
    setup.push_back(e.setup_s);
    if (e.tta_s >= 0.0) tta.push_back(e.tta_s);
    rounds.insert(rounds.end(), e.round_wall.begin(), e.round_wall.end());
    cpu.insert(cpu.end(), e.round_cpu.begin(), e.round_cpu.end());
  }
  for (std::size_t k = eps.size(); setup.size() < kSetups; ++k) {
    setup.push_back(w.setup_only(w, episode_seed(o.seed, k), o.smoke));
  }
  std::fprintf(stderr, "%s: %zu episodes, %zu round samples, digest %s\n",
               w.name, eps.size(), rounds.size(),
               digest(eps.front().final_params).c_str());
  print_env(o, steal_frac(s0, read_steal()));
  std::printf("{\"digest\": %s, \"final_acc\": %s, \"episodes\": %zu, "
              "\"round_samples\": %zu}\n",
              json_str(digest(eps.front().final_params)).c_str(),
              json_num(eps.front().final_acc).c_str(), eps.size(), rounds.size());
  for (const std::string& p : t.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  const bool correct = t.problems.empty() && t.failed == 0;
  print_result(correct, t.attempted, t.failed,
               {{"setup_s", median(setup), "s"},
                {"round_s", median(rounds), "s"},
                {"cpu_s", median(cpu), "s"},
                {"tta_s", tta.empty() ? -1.0 : median(tta), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MiB"}});
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Options& o, const StealSample& s0) {
  Totals t;
  const Episode off = run_checked(w, o.seed, o.smoke, "off", t);
  const Episode traced = run_checked(w, o.seed, o.smoke, "trace", t);
  const std::vector<appfl::obs::SpanRecord> spans =
      appfl::obs::Tracer::global().collect();
  if (digest(off.final_params) != digest(traced.final_params)) {
    t.problems.push_back("tracing changed the final model");
  }
  if (appfl::obs::Tracer::global().dropped() > 0) {
    t.problems.push_back("the tracer overwrote spans before they were read");
  }
  const SpanStats stats = analyze_spans(w, spans, traced);
  if (stats.attributed_frac < 0.95) {
    t.problems.push_back("traced rounds attribute only " +
                         json_num(stats.attributed_frac) + " of their wall to phases");
  }
  std::vector<Metric> metrics = stats.metrics;
  for (Metric& m : replay(w, o.seed, o.smoke, stats)) metrics.push_back(m);
  const double off_round = median(off.round_wall);
  const double traced_round = median(traced.round_wall);
  const double steal = steal_frac(s0, read_steal());
  metrics.push_back({"core.round_tail_s", tail(off.round_wall), "s"});
  metrics.push_back({"core.round_samples", static_cast<double>(off.round_wall.size()), "count"});
  metrics.push_back({"data.synth_s", off.synth_s, "s"});
  metrics.push_back({"final_acc", off.final_acc, "frac"});
  metrics.push_back({"obs.trace_overhead_frac", traced_round / off_round - 1.0, "frac"});
  metrics.push_back({"host.steal_frac", steal, "frac"});
  print_env(o, steal);
  std::printf("{\"digest\": %s, \"spans\": %zu, \"dropped_spans\": %llu}\n",
              json_str(digest(off.final_params)).c_str(), spans.size(),
              static_cast<unsigned long long>(appfl::obs::Tracer::global().dropped()));
  for (const std::string& p : t.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  const bool correct = t.problems.empty() && t.failed == 0;
  print_result(correct, t.attempted, t.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload& w = *find_workload(o.workload);
  const StealSample s0 = read_steal();
  try {
    return o.trace ? run_traced(w, o, s0) : run_end_to_end(w, o, s0);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "round_bench: %s\n", ex.what());
    return 1;
  }
}

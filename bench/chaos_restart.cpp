// Chaos-restart harness: kill a federated run at every round boundary (and
// once mid-save, leaving a torn slot), restart it from the checkpoint
// store, and verify the resumed run reaches the SAME final model — float
// bytes compared with memcmp, not a tolerance — with a monotone DP ledger.
// Covers every writer of the checkpoint record: the sync runner under all
// five algorithms (FedAvg, FedProx, FedOpt, ICEADMM, IIADMM), the
// population engine under drop faults with a flat and a fan-out-4
// aggregation tree, and the asynchronous event loop at update granularity
// under each of its four commit policies (FedAsync, FedBuff, FedCompass,
// async IIADMM).
//
//   chaos_restart           full sweep: 10 rounds, every kill point,
//                           writes results/chaos_restart.csv
//   chaos_restart --smoke   seconds-long CI mode: fewer rounds/kill points,
//                           same invariants, writes nothing
//
// Env knobs: APPFL_CHAOS_ROUNDS, APPFL_CHAOS_CLIENTS, APPFL_CHAOS_PER_CLIENT.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/async_runner.hpp"
#include "core/checkpoint.hpp"
#include "core/event_engine.hpp"
#include "core/runner.hpp"
#include "core/server_opt.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;
using appfl::core::Algorithm;
using appfl::core::RunConfig;
using appfl::core::RunResult;

struct AlgoCase {
  std::string name;
  Algorithm algorithm;  // ignored when fedopt
  bool fedopt = false;
  bool population = false;  // the population engine, with drop faults
  std::size_t fan_out = 0;  // population: aggregation-tree fan-out (0 = flat)
  bool adaptive_rho = false;  // residual-balancing ρ, at ε = ∞
};

// What the cases train on: the sync runner's split and the population
// engine's lazy writers.
struct Inputs {
  const appfl::data::FederatedSplit& split;
  const appfl::data::SyntheticPopulation& population;
};

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Whether every round a run resumed after `from` broadcast the ρ the
// uninterrupted run did (an adaptive ρ is server state the restore rebuilds).
bool same_rho(const RunResult& baseline, const RunResult& resumed,
              std::uint32_t from) {
  if (from + resumed.rounds.size() != baseline.rounds.size()) return false;
  for (std::size_t r = 0; r < resumed.rounds.size(); ++r) {
    if (resumed.rounds[r].rho != baseline.rounds[from + r].rho) return false;
  }
  return true;
}

// One run of the case; FedOpt needs the custom-server overload (its resume
// identity rides on checkpoint_kind(), not the algorithm enum).
RunResult run_case(const AlgoCase& algo, const RunConfig& cfg,
                   const Inputs& in) {
  if (algo.population) {
    return appfl::core::run_population(cfg, in.population).run;
  }
  const appfl::data::FederatedSplit& split = in.split;
  if (!algo.fedopt) return appfl::core::run_federated(cfg, split);
  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(appfl::core::build_client(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  appfl::core::FedOptServer server(cfg, appfl::core::ServerOptConfig{},
                                   std::move(model), split.test,
                                   clients.size());
  return appfl::core::run_federated(cfg, server, clients);
}

// Truncates the newest checkpoint slot to a prefix, as a crash mid-save
// would. Returns the torn file's name.
std::string tear_newest_slot(const std::string& dir) {
  appfl::core::CheckpointStore probe(dir);
  const auto newest = probe.load_latest();
  APPFL_CHECK_MSG(newest.has_value(), "no checkpoint to tear in " << dir);
  const fs::path path = fs::path(dir) / newest->slot;
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() / 3);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return newest->slot;
}

struct KillOutcome {
  bool identical = false;
  bool dp_monotone = false;
  std::uint32_t resumed_from = 0;
};

KillOutcome kill_restart_verify(const AlgoCase& algo, const RunConfig& cfg,
                                const Inputs& in, const RunResult& baseline,
                                std::uint32_t k, bool tear_mid_save) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("appfl_chaos_" + algo.name + "_" + std::to_string(k) +
        (tear_mid_save ? "_torn" : "")))
          .string();
  fs::remove_all(dir);
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir;
  killed.halt_after_round = k;
  const RunResult partial = run_case(algo, killed, in);
  if (tear_mid_save) tear_newest_slot(dir);

  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir;
  resumed_cfg.resume_from = dir;
  const RunResult resumed = run_case(algo, resumed_cfg, in);

  KillOutcome out;
  out.identical =
      same_bits(baseline.final_parameters, resumed.final_parameters) &&
      same_rho(baseline, resumed, resumed.resumed_from_round);
  // DP ledger can only grow across the kill, and the completed resumed run
  // must land exactly on the uninterrupted run's total.
  out.dp_monotone = resumed.dp_epsilon_spent >= partial.dp_epsilon_spent &&
                    resumed.dp_epsilon_spent == baseline.dp_epsilon_spent;
  out.resumed_from = resumed.resumed_from_round;
  fs::remove_all(dir);
  return out;
}

// One commit policy of the async event loop. IIADMM is reached through
// run_async_iiadmm; the others through run_async's strategy knob.
struct AsyncCase {
  std::string name;
  appfl::core::AsyncStrategyKind kind;  // ignored when iiadmm
  bool iiadmm = false;
};

struct AsyncOutcome {
  appfl::core::AsyncRunResult run;
  bool duals_consistent = true;  // only IIADMM has replicas to compare
};

AsyncOutcome run_async_case(const AsyncCase& c,
                            const appfl::core::AsyncConfig& cfg,
                            const appfl::data::FederatedSplit& split) {
  if (!c.iiadmm) return {appfl::core::run_async(cfg, split), true};
  auto r = appfl::core::run_async_iiadmm(cfg, split);
  return {std::move(r.base), r.duals_consistent};
}

void verify_async(const AsyncCase& c,
                  const appfl::data::FederatedSplit& split,
                  const RunConfig& base, bool smoke) {
  appfl::core::AsyncConfig acfg;
  acfg.run = base;
  acfg.run.epsilon = std::numeric_limits<double>::infinity();
  acfg.strategy.kind = c.kind;
  // K = 3 puts the smoke kill points (updates 4 and 8) mid-buffer.
  acfg.strategy.buffer_k = 3;
  // A mixed fleet gives FedCompass a non-uniform step plan to restore.
  if (c.kind == appfl::core::AsyncStrategyKind::kFedCompass) {
    acfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
  }
  const AsyncOutcome baseline = run_async_case(c, acfg, split);
  const std::uint64_t total = baseline.run.applied_updates;
  const std::uint64_t step = smoke ? total / 2 : 1;
  for (std::uint64_t k = step; k < total; k += step) {
    const std::string dir =
        (fs::temp_directory_path() /
         ("appfl_chaos_async_" + c.name + "_" + std::to_string(k)))
            .string();
    fs::remove_all(dir);
    appfl::core::AsyncConfig killed = acfg;
    killed.run.checkpoint_dir = dir;
    killed.run.halt_after_round = k;  // applied-update granularity
    (void)run_async_case(c, killed, split);
    appfl::core::AsyncConfig resumed_cfg = acfg;
    resumed_cfg.run.checkpoint_dir = dir;
    resumed_cfg.run.resume_from = dir;
    const AsyncOutcome resumed = run_async_case(c, resumed_cfg, split);
    APPFL_CHECK_MSG(resumed.run.resumed_from_update == k,
                    "async " << c.name << " resume landed on update "
                             << resumed.run.resumed_from_update
                             << ", expected " << k);
    APPFL_CHECK_MSG(same_bits(baseline.run.final_w, resumed.run.final_w),
                    "async " << c.name
                             << " final model diverged after kill at update "
                             << k);
    APPFL_CHECK_MSG(resumed.duals_consistent,
                    "async " << c.name << " dual replicas diverged after "
                             << "kill at update " << k);
    fs::remove_all(dir);
  }
  std::cout << "async " << c.name << ": " << (total - 1) / step
            << " kill points bit-identical\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::size_t rounds =
      appfl::bench::env_size_t("APPFL_CHAOS_ROUNDS", smoke ? 6 : 10);
  const std::size_t clients =
      appfl::bench::env_size_t("APPFL_CHAOS_CLIENTS", smoke ? 3 : 4);
  const std::size_t per_client =
      appfl::bench::env_size_t("APPFL_CHAOS_PER_CLIENT", smoke ? 32 : 48);

  appfl::data::SynthImageSpec spec;
  spec.num_clients = clients;
  spec.train_per_client = per_client;
  spec.test_size = smoke ? 64 : 128;
  spec.seed = 29;
  const auto split = appfl::data::mnist_like(spec);
  appfl::data::FemnistSpec pop_spec;
  pop_spec.num_writers = 100;
  pop_spec.mean_samples_per_writer = 16;
  pop_spec.test_size = smoke ? 64 : 128;
  pop_spec.seed = 29;
  const appfl::data::SyntheticPopulation population(pop_spec);
  const Inputs inputs{split, population};

  const std::vector<AlgoCase> cases = {
      {"FedAvg", Algorithm::kFedAvg, false},
      {"FedProx", Algorithm::kFedProx, false},
      {"FedOpt", Algorithm::kFedAvg, true},
      {"ICEADMM", Algorithm::kIceAdmm, false},
      {"IIADMM", Algorithm::kIIAdmm, false},
      {"Population", Algorithm::kFedAvg, false, true, 0},
      {"Population-tree4", Algorithm::kFedAvg, false, true, 4},
      {"ICEADMM-adaptive", Algorithm::kIceAdmm, false, false, 0, true},
      {"IIADMM-adaptive", Algorithm::kIIAdmm, false, false, 0, true},
  };

  appfl::util::TextTable table(
      {"algorithm", "scenario", "kill_at", "identical", "dp_monotone",
       "resumed_from", "final_acc"});
  appfl::util::CsvWriter csv(
      {"algorithm", "scenario", "kill_at", "identical", "dp_monotone",
       "resumed_from", "final_acc"});

  std::size_t failures = 0;
  for (const AlgoCase& algo : cases) {
    RunConfig cfg;
    cfg.algorithm = algo.algorithm;
    cfg.model = appfl::core::ModelKind::kLogistic;
    cfg.rounds = rounds;
    cfg.local_steps = 2;
    cfg.batch_size = 16;
    cfg.seed = 11;
    cfg.validate_every_round = false;
    // Finite budget so every scenario also audits the DP ledger.
    cfg.epsilon = 0.25;
    if (algo.population) {
      cfg.population = pop_spec.num_writers;
      cfg.participants_per_round = 8;
      cfg.tree_fan_out = algo.fan_out;
      // Drops also move the fault plane's link counters, which must resume.
      cfg.faults.drop = 0.2;
    }
    if (algo.adaptive_rho) {
      // validate() rejects adaptive ρ with a finite ε. An over-damped start
      // makes ρ move in the first rounds, so every kill restores an adapted
      // ρ along with the replicas.
      cfg.adaptive_rho = true;
      cfg.epsilon = std::numeric_limits<double>::infinity();
      cfg.rho = 30.0F;
    }
    const RunResult baseline = run_case(algo, cfg, inputs);
    APPFL_CHECK_MSG(!algo.adaptive_rho || baseline.rounds.front().rho !=
                                              baseline.rounds.back().rho,
                    algo.name << ": rho never adapted, so no kill restores "
                                 "an adapted one");

    // Kill at every round boundary (smoke: a head/middle/tail sample, two
    // rounds for the adaptive-ρ cases).
    std::vector<std::uint32_t> kills;
    if (smoke && algo.adaptive_rho) {
      kills = {2, static_cast<std::uint32_t>(rounds - 2)};
    } else if (smoke) {
      kills = {1, static_cast<std::uint32_t>(rounds / 2),
               static_cast<std::uint32_t>(rounds - 1)};
    } else {
      for (std::uint32_t k = 1; k < rounds; ++k) kills.push_back(k);
    }
    for (const std::uint32_t k : kills) {
      const KillOutcome out =
          kill_restart_verify(algo, cfg, inputs, baseline, k, false);
      failures += !out.identical || !out.dp_monotone ||
                  out.resumed_from != k;
      const std::vector<std::string> row{
          algo.name, "kill", std::to_string(k),
          out.identical ? "yes" : "NO", out.dp_monotone ? "yes" : "NO",
          std::to_string(out.resumed_from),
          appfl::util::fmt(baseline.final_accuracy, 4)};
      table.add_row(row);
      csv.add_row(row);
    }

    // Crash DURING the save at round k: the torn slot is quarantined and
    // recovery falls back to round k-1's snapshot.
    const std::uint32_t k_torn =
        static_cast<std::uint32_t>(rounds / 2);
    const KillOutcome torn =
        kill_restart_verify(algo, cfg, inputs, baseline, k_torn, true);
    failures += !torn.identical || !torn.dp_monotone ||
                torn.resumed_from != k_torn - 1;
    const std::vector<std::string> row{
        algo.name, "mid-save", std::to_string(k_torn),
        torn.identical ? "yes" : "NO", torn.dp_monotone ? "yes" : "NO",
        std::to_string(torn.resumed_from),
        appfl::util::fmt(baseline.final_accuracy, 4)};
    table.add_row(row);
    csv.add_row(row);
  }

  {
    RunConfig async_base;
    async_base.algorithm = Algorithm::kFedAvg;
    async_base.model = appfl::core::ModelKind::kLogistic;
    async_base.rounds = smoke ? 3 : 4;
    async_base.local_steps = 1;
    async_base.batch_size = 16;
    async_base.seed = 11;
    async_base.validate_every_round = false;
    using appfl::core::AsyncStrategyKind;
    const std::vector<AsyncCase> async_cases = {
        {"fedasync", AsyncStrategyKind::kFedAsync},
        {"fedbuff", AsyncStrategyKind::kFedBuff},
        {"fedcompass", AsyncStrategyKind::kFedCompass},
        {"iiadmm", AsyncStrategyKind::kFedAsync, true},
    };
    for (const AsyncCase& c : async_cases) {
      verify_async(c, split, async_base, smoke);
    }
  }

  if (smoke) {
    table.print(std::cout);
  } else {
    appfl::bench::emit(table, csv, "chaos_restart.csv");
  }
  if (failures > 0) {
    std::cerr << "chaos_restart: " << failures << " scenario(s) FAILED\n";
    return 1;
  }
  std::cout << "chaos_restart: all scenarios bit-identical, DP ledger "
               "monotone\n";
  return 0;
}

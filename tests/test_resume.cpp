// Crash recovery: a run killed at ANY round boundary and resumed from its
// round checkpoint must reach a bit-identical final model — same float
// bytes — as the uninterrupted run, for every algorithm, including under an
// active fault schedule and DP accounting. Also covers the CheckpointStore
// A/B invariants (mid-save crashes, quarantine of corrupt slots).
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <vector>

#include "core/async_runner.hpp"
#include "core/checkpoint.hpp"
#include "core/event_engine.hpp"
#include "core/runner.hpp"
#include "core/server_opt.hpp"
#include "data/synth.hpp"

namespace {

namespace fs = std::filesystem;
using appfl::core::Algorithm;
using appfl::core::CheckpointStore;
using appfl::core::ModelKind;
using appfl::core::RunConfig;
using appfl::core::RunResult;

// Fresh (pre-removed) temp directory, cleaned up on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

appfl::data::FederatedSplit make_split(std::uint64_t seed = 91) {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 3;
  spec.train_per_client = 32;
  spec.test_size = 64;
  spec.seed = seed;
  return appfl::data::mnist_like(spec);
}

RunConfig base_config(Algorithm alg) {
  RunConfig cfg;
  cfg.algorithm = alg;
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.batch_size = 16;
  cfg.seed = 7;
  cfg.validate_every_round = false;
  return cfg;
}

// Bitwise equality — accuracy-style EXPECT_NEAR would hide drift.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool same_bits2(const std::vector<std::vector<float>>& a,
                const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

// Kill at round k (halt_after_round), restart from the checkpoint, and
// return the resumed run's result.
RunResult kill_and_resume(const RunConfig& cfg,
                          const appfl::data::FederatedSplit& split,
                          const std::string& dir, std::uint32_t k) {
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir;
  killed.halt_after_round = k;
  const RunResult partial = appfl::core::run_federated(killed, split);
  EXPECT_EQ(partial.rounds.size(), k);
  EXPECT_GE(partial.checkpoints_written, 1U);

  RunConfig resumed = cfg;
  resumed.checkpoint_dir = dir;
  resumed.resume_from = dir;
  RunResult result = appfl::core::run_federated(resumed, split);
  EXPECT_EQ(result.resumed_from_round, k);
  return result;
}

TEST(Resume, KillAtEveryRoundBitIdenticalAllAlgorithms) {
  const auto split = make_split();
  for (const Algorithm alg : {Algorithm::kFedAvg, Algorithm::kFedProx,
                              Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    const RunConfig cfg = base_config(alg);
    const RunResult baseline = appfl::core::run_federated(cfg, split);
    ASSERT_FALSE(baseline.final_parameters.empty());
    for (std::uint32_t k = 1; k < cfg.rounds; ++k) {
      TempDir dir("appfl_resume_" + appfl::core::to_string(alg) + "_" +
                  std::to_string(k));
      const RunResult resumed = kill_and_resume(cfg, split, dir.str(), k);
      EXPECT_TRUE(same_bits(baseline.final_parameters,
                            resumed.final_parameters))
          << appfl::core::to_string(alg) << " diverged after kill at round "
          << k;
      EXPECT_EQ(baseline.final_accuracy, resumed.final_accuracy);
    }
  }
}

TEST(Resume, ClientSamplingStreamSurvivesRestart) {
  // fraction < 1 draws participants from the stateful sampler stream; the
  // resumed run must pick the SAME clients in every remaining round.
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.client_fraction = 0.67;
  const RunResult baseline = appfl::core::run_federated(cfg, split);
  TempDir dir("appfl_resume_sampler");
  const RunResult resumed = kill_and_resume(cfg, split, dir.str(), 3);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
  for (std::size_t r = 3; r < baseline.rounds.size(); ++r) {
    EXPECT_EQ(baseline.rounds[r].participants,
              resumed.rounds[r - 3].participants);
  }
}

TEST(Resume, FedOptServerMomentsSurviveRestart) {
  // FedOpt runs through the custom-server overload; its resume fingerprint
  // rides on checkpoint_kind(), not the algorithm enum.
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  const appfl::core::ServerOptConfig opt;  // FedAdam defaults

  auto run_fedopt = [&](const RunConfig& rc) {
    auto model = appfl::core::build_model(rc, split.test);
    std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
    for (std::size_t p = 0; p < split.clients.size(); ++p) {
      clients.push_back(appfl::core::build_client(
          static_cast<std::uint32_t>(p + 1), rc, *model, split.clients[p]));
    }
    appfl::core::FedOptServer server(rc, opt, std::move(model), split.test,
                                     clients.size());
    return appfl::core::run_federated(rc, server, clients);
  };

  const RunResult baseline = run_fedopt(cfg);
  TempDir dir("appfl_resume_fedopt");
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir.str();
  killed.halt_after_round = 3;
  (void)run_fedopt(killed);
  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir.str();
  resumed_cfg.resume_from = dir.str();
  const RunResult resumed = run_fedopt(resumed_cfg);
  EXPECT_EQ(resumed.resumed_from_round, 3U);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
}

TEST(Resume, IIAdmmDualReplicasBitIdenticalAfterRestart) {
  // The paper's dual-replication invariant: server-held λ_p replicas (never
  // on the wire) must survive the restart byte-for-byte, on both sides.
  const auto split = make_split();
  const RunConfig cfg = base_config(Algorithm::kIIAdmm);

  struct Outcome {
    RunResult result;
    appfl::core::ServerStateCkpt server;
    std::vector<appfl::core::ClientStateCkpt> clients;
  };
  auto run_iiadmm = [&](const RunConfig& rc) {
    auto model = appfl::core::build_model(rc, split.test);
    std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
    for (std::size_t p = 0; p < split.clients.size(); ++p) {
      clients.push_back(appfl::core::build_client(
          static_cast<std::uint32_t>(p + 1), rc, *model, split.clients[p]));
    }
    auto server = appfl::core::build_server(rc, std::move(model), split.test,
                                            clients.size());
    Outcome out;
    out.result = appfl::core::run_federated(rc, *server, clients);
    out.server = server->export_state();
    for (const auto& c : clients) out.clients.push_back(c->export_state());
    return out;
  };

  const Outcome baseline = run_iiadmm(cfg);
  TempDir dir("appfl_resume_iiadmm_duals");
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir.str();
  killed.halt_after_round = 2;
  (void)run_iiadmm(killed);
  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir.str();
  resumed_cfg.resume_from = dir.str();
  const Outcome resumed = run_iiadmm(resumed_cfg);

  EXPECT_TRUE(
      same_bits(baseline.result.final_parameters,
                resumed.result.final_parameters));
  EXPECT_TRUE(same_bits2(baseline.server.dual, resumed.server.dual));
  EXPECT_TRUE(same_bits2(baseline.server.primal, resumed.server.primal));
  ASSERT_EQ(baseline.clients.size(), resumed.clients.size());
  for (std::size_t p = 0; p < baseline.clients.size(); ++p) {
    // Replication invariant per client, across the restart.
    EXPECT_TRUE(same_bits(baseline.clients[p].dual, resumed.clients[p].dual));
    EXPECT_TRUE(same_bits(resumed.clients[p].dual, resumed.server.dual[p]));
  }
}

TEST(Resume, FaultScheduleContinuesDeterministically) {
  // The injector schedule is a pure function of (seed, per-link sequence
  // counters); restoring the counters must continue it with no replayed or
  // skipped events. Delay/reorder faults are excluded: they move traffic
  // across the kill boundary, which a round-granular snapshot cannot (and
  // need not) represent.
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.faults.drop = 0.2;
  cfg.faults.corrupt = 0.1;
  cfg.faults.duplicate = 0.1;
  const RunResult baseline = appfl::core::run_federated(cfg, split);
  TempDir dir("appfl_resume_faults");
  const RunResult resumed = kill_and_resume(cfg, split, dir.str(), 3);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
  EXPECT_EQ(baseline.traffic.drops, resumed.traffic.drops);
  EXPECT_EQ(baseline.traffic.duplicates, resumed.traffic.duplicates);
  EXPECT_EQ(baseline.traffic.corruptions, resumed.traffic.corruptions);
  EXPECT_EQ(baseline.traffic.crc_failures, resumed.traffic.crc_failures);
  EXPECT_EQ(baseline.traffic.retries, resumed.traffic.retries);
  EXPECT_EQ(baseline.traffic.messages_up, resumed.traffic.messages_up);
}

TEST(Resume, DpBudgetMonotoneAndRestartInvariant) {
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.epsilon = 0.5;  // per-round budget, basic composition
  cfg.clip = 1.0F;
  const RunResult baseline = appfl::core::run_federated(cfg, split);
  EXPECT_NEAR(baseline.dp_epsilon_spent, 0.5 * 6, 1e-12);

  TempDir dir("appfl_resume_dp");
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir.str();
  killed.halt_after_round = 4;
  const RunResult partial = appfl::core::run_federated(killed, split);

  // The on-disk accountant state never decreases across the kill.
  CheckpointStore store(dir.str());
  const auto rc = appfl::core::load_latest_checkpoint(store);
  ASSERT_TRUE(rc.has_value());
  for (const auto& c : rc->clients) {
    EXPECT_NEAR(c.dp_spent, 0.5 * 4, 1e-12);
  }
  EXPECT_NEAR(partial.dp_epsilon_spent, 0.5 * 4, 1e-12);

  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir.str();
  resumed_cfg.resume_from = dir.str();
  const RunResult resumed = appfl::core::run_federated(resumed_cfg, split);
  EXPECT_GE(resumed.dp_epsilon_spent, partial.dp_epsilon_spent);
  EXPECT_NEAR(resumed.dp_epsilon_spent, baseline.dp_epsilon_spent, 1e-12);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
}

TEST(Resume, CheckpointingItselfChangesNothing) {
  // Writing checkpoints must be pure observation: a run with the store on
  // ends bit-identical to one with it off.
  const auto split = make_split();
  const RunConfig cfg = base_config(Algorithm::kIceAdmm);
  const RunResult plain = appfl::core::run_federated(cfg, split);
  TempDir dir("appfl_resume_observer");
  RunConfig observed = cfg;
  observed.checkpoint_dir = dir.str();
  const RunResult with_ckpt = appfl::core::run_federated(observed, split);
  EXPECT_EQ(with_ckpt.checkpoints_written, cfg.rounds);
  EXPECT_TRUE(same_bits(plain.final_parameters, with_ckpt.final_parameters));
  EXPECT_EQ(plain.final_accuracy, with_ckpt.final_accuracy);
}

TEST(Resume, EmptyCheckpointEnvLeavesTheConfiguredStore) {
  // An empty APPFL_* value counts as unset: APPFL_CKPT_DIR= must not turn
  // off the store the config asked for.
  const auto split = make_split();
  TempDir dir("appfl_resume_empty_env");
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.checkpoint_dir = dir.str();
  ::setenv("APPFL_CKPT_DIR", "", 1);
  const RunResult result = appfl::core::run_federated(cfg, split);
  ::unsetenv("APPFL_CKPT_DIR");
  EXPECT_EQ(result.config.checkpoint_dir, dir.str());
  EXPECT_EQ(result.checkpoints_written, cfg.rounds);
}

TEST(Resume, CheckpointCadenceResumesFromLastMultiple)  {
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.checkpoint_every_n_rounds = 2;
  const RunResult baseline = appfl::core::run_federated(cfg, split);

  TempDir dir("appfl_resume_cadence");
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir.str();
  killed.halt_after_round = 3;  // halt boundary forces a snapshot at 3
  (void)appfl::core::run_federated(killed, split);
  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir.str();
  resumed_cfg.resume_from = dir.str();
  const RunResult resumed = appfl::core::run_federated(resumed_cfg, split);
  EXPECT_EQ(resumed.resumed_from_round, 3U);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
}

TEST(Resume, FingerprintMismatchIsRejected) {
  const auto split = make_split();
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  TempDir dir("appfl_resume_fingerprint");
  cfg.checkpoint_dir = dir.str();
  cfg.halt_after_round = 2;
  (void)appfl::core::run_federated(cfg, split);

  RunConfig other = base_config(Algorithm::kFedAvg);
  other.resume_from = dir.str();
  other.seed = cfg.seed + 1;  // different run
  EXPECT_THROW(appfl::core::run_federated(other, split), appfl::Error);
  other.seed = cfg.seed;
  other.rounds = cfg.rounds + 1;  // lr schedule would differ
  EXPECT_THROW(appfl::core::run_federated(other, split), appfl::Error);

  // Wrong server kind: an ICEADMM run must refuse a FedAvg checkpoint.
  RunConfig wrong_alg = base_config(Algorithm::kIceAdmm);
  wrong_alg.resume_from = dir.str();
  EXPECT_THROW(appfl::core::run_federated(wrong_alg, split), appfl::Error);
}

TEST(Resume, PopulationEngineKillAtEveryRoundBitIdentical) {
  // Event-engine runs: the v2 checkpoint carries the sampler stream, the
  // sparse participation ledger, and the fault-link counters, so a kill at
  // ANY round boundary resumes to the same final bytes AND the same
  // participant sets in every remaining round.
  appfl::data::FemnistSpec spec;
  spec.num_writers = 300;
  spec.mean_samples_per_writer = 16;
  spec.test_size = 64;
  spec.seed = 7;
  const appfl::data::SyntheticPopulation pop(spec);

  RunConfig cfg;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 5;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  cfg.population = 300;
  cfg.participants_per_round = 20;
  cfg.tree_fan_out = 4;
  cfg.seed = 7;
  cfg.validate_every_round = false;
  cfg.faults.drop = 0.2;  // the fault schedule must resume seamlessly too

  const auto baseline = appfl::core::run_population(cfg, pop);
  ASSERT_FALSE(baseline.run.final_parameters.empty());
  ASSERT_EQ(baseline.participants_by_round.size(), 5U);

  for (std::uint32_t k = 1; k < cfg.rounds; ++k) {
    TempDir dir("appfl_resume_population_" + std::to_string(k));
    RunConfig killed = cfg;
    killed.checkpoint_dir = dir.str();
    killed.halt_after_round = k;
    const auto partial = appfl::core::run_population(killed, pop);
    EXPECT_EQ(partial.run.rounds.size(), k);
    EXPECT_GE(partial.run.checkpoints_written, 1U);

    RunConfig resumed_cfg = cfg;
    resumed_cfg.checkpoint_dir = dir.str();
    resumed_cfg.resume_from = dir.str();
    const auto resumed = appfl::core::run_population(resumed_cfg, pop);
    EXPECT_EQ(resumed.run.resumed_from_round, k);
    EXPECT_TRUE(same_bits(baseline.run.final_parameters,
                          resumed.run.final_parameters))
        << "population engine diverged after kill at round " << k;
    EXPECT_EQ(baseline.run.final_accuracy, resumed.run.final_accuracy);
    // The resumed process replays none of the first k rounds and samples
    // exactly the cohorts the uninterrupted run would have.
    ASSERT_EQ(resumed.participants_by_round.size(), cfg.rounds - k);
    for (std::size_t r = 0; r < resumed.participants_by_round.size(); ++r) {
      EXPECT_EQ(baseline.participants_by_round[k + r],
                resumed.participants_by_round[r])
          << "cohort mismatch in resumed round " << k + r + 1;
    }
    // DP ledger: cumulative spend must match the uninterrupted run.
    EXPECT_EQ(baseline.run.dp_epsilon_spent, resumed.run.dp_epsilon_spent);
  }
}

TEST(Resume, PopulationEngineRejectsMismatchedFingerprints) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = 100;
  spec.mean_samples_per_writer = 16;
  spec.test_size = 64;
  spec.seed = 7;
  const appfl::data::SyntheticPopulation pop(spec);

  RunConfig cfg;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  cfg.population = 100;
  cfg.participants_per_round = 10;
  cfg.seed = 7;
  cfg.validate_every_round = false;
  TempDir dir("appfl_resume_population_fingerprint");
  cfg.checkpoint_dir = dir.str();
  cfg.halt_after_round = 1;
  (void)appfl::core::run_population(cfg, pop);

  RunConfig other = cfg;
  other.halt_after_round = 0;
  other.checkpoint_dir.clear();
  other.resume_from = dir.str();
  other.participants_per_round = 11;  // different cohort size = different run
  EXPECT_THROW(appfl::core::run_population(other, pop), appfl::Error);

  // A classic sync-runner must refuse a population checkpoint (and not
  // crash on the empty clients[] it carries).
  RunConfig sync_cfg = base_config(Algorithm::kFedAvg);
  sync_cfg.resume_from = dir.str();
  EXPECT_THROW(appfl::core::run_federated(sync_cfg, make_split()),
               appfl::Error);
}

// One small save per writer of the record, each leaving two slots (steps
// 1 and 2) in `dir`: the sync runner, the population engine and the async
// event loop.
appfl::data::FederatedSplit tiny_split() {
  appfl::data::SynthImageSpec spec;
  spec.height = 4;
  spec.width = 4;
  spec.num_classes = 3;
  spec.num_clients = 2;
  spec.train_per_client = 16;
  spec.test_size = 16;
  spec.seed = 5;
  return appfl::data::mnist_like(spec);
}

const appfl::data::SyntheticPopulation& tiny_population() {
  static const appfl::data::SyntheticPopulation pop([] {
    appfl::data::FemnistSpec spec;
    spec.num_classes = 2;
    spec.min_classes_per_writer = 1;
    spec.max_classes_per_writer = 2;
    spec.num_writers = 20;
    spec.mean_samples_per_writer = 8;
    spec.test_size = 16;
    spec.seed = 5;
    return spec;
  }());
  return pop;
}

RunConfig tiny_config() {
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  return cfg;
}

RunConfig tiny_population_config() {
  RunConfig cfg = tiny_config();
  cfg.population = 20;
  cfg.participants_per_round = 4;
  return cfg;
}

/// One run of a writer of the record, to completion or to `halt_after`
/// steps, checkpointing into `checkpoint_dir` and resuming from
/// `resume_from` when they are set; returns the final model. The flavors:
/// the sync runner, the population engine, and the async loop under each
/// commit policy — "async" (FedAsync), "fedbuff" (K = 3, so step 2 is saved
/// mid-buffer), "fedcompass" (a mixed fleet, so the saved step plan is not
/// uniform) and "async-iiadmm" (the replica and w_sent tables).
std::vector<float> run_flavor(const std::string& flavor,
                              const std::string& checkpoint_dir,
                              const std::string& resume_from,
                              std::size_t halt_after = 0) {
  RunConfig cfg =
      flavor == "population" ? tiny_population_config() : tiny_config();
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.resume_from = resume_from;
  cfg.halt_after_round = halt_after;
  if (flavor == "sync") {
    return appfl::core::run_federated(cfg, tiny_split()).final_parameters;
  }
  if (flavor == "population") {
    return appfl::core::run_population(cfg, tiny_population())
        .run.final_parameters;
  }
  appfl::core::AsyncConfig acfg;
  acfg.run = cfg;
  acfg.total_updates = 4;
  if (flavor == "async-iiadmm") {
    acfg.run.algorithm = Algorithm::kIIAdmm;
    return appfl::core::run_async_iiadmm(acfg, tiny_split()).base.final_w;
  }
  if (flavor == "fedbuff") {
    acfg.strategy.kind = appfl::core::AsyncStrategyKind::kFedBuff;
    acfg.strategy.buffer_k = 3;
  } else if (flavor == "fedcompass") {
    acfg.strategy.kind = appfl::core::AsyncStrategyKind::kFedCompass;
    acfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
  }
  return appfl::core::run_async(acfg, tiny_split()).final_w;
}

void save_two_slots(const std::string& flavor, const std::string& dir) {
  (void)run_flavor(flavor, dir, "", 2);
}

void resume_run(const std::string& flavor, const std::string& dir) {
  (void)run_flavor(flavor, "", dir);
}

TEST(Resume, OtherLoopsCheckpointIsRefusedAndKept) {
  // Every flavor decodes through one decoder, so a slot written by another
  // loop is not quarantined as undecodable: the checkpoint plane refuses
  // it with one message naming both fingerprints, and both slots stay.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"async", "sync"}, {"sync", "async"}, {"population", "sync"}};
  for (const auto& [writer, reader] : cases) {
    TempDir dir("appfl_resume_refuse_" + writer + "_" + reader);
    save_two_slots(writer, dir.str());
    try {
      resume_run(reader, dir.str());
      ADD_FAILURE() << reader << " resumed from a " << writer << " store";
    } catch (const appfl::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checkpoint fingerprint mismatch: checkpoint is "
                          "(flavor="),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("this run is (flavor="), std::string::npos) << what;
    }
    for (const char* slot :
         {CheckpointStore::kSlotA, CheckpointStore::kSlotB}) {
      EXPECT_TRUE(fs::exists(dir.path / slot)) << writer << " " << slot;
      EXPECT_FALSE(fs::exists(dir.path / (std::string(slot) + ".quarantined")))
          << writer << " " << slot;
    }
  }
}

TEST(Resume, AsyncRunSurvivesKillAndRestartBitIdentical) {
  const auto split = make_split();
  appfl::core::AsyncConfig acfg;
  acfg.run = base_config(Algorithm::kFedAvg);
  acfg.run.rounds = 4;  // 4 × 3 clients = 12 applied updates
  const auto baseline = appfl::core::run_async(acfg, split);
  ASSERT_FALSE(baseline.final_w.empty());

  for (const std::uint64_t k : {1ULL, 5ULL, 11ULL}) {
    TempDir dir("appfl_resume_async_" + std::to_string(k));
    appfl::core::AsyncConfig killed = acfg;
    killed.run.checkpoint_dir = dir.str();
    killed.run.halt_after_round = k;  // applied-update granularity
    const auto partial = appfl::core::run_async(killed, split);
    EXPECT_EQ(partial.applied_updates, k);

    appfl::core::AsyncConfig resumed_cfg = acfg;
    resumed_cfg.run.checkpoint_dir = dir.str();
    resumed_cfg.run.resume_from = dir.str();
    const auto resumed = appfl::core::run_async(resumed_cfg, split);
    EXPECT_EQ(resumed.resumed_from_update, k);
    EXPECT_TRUE(same_bits(baseline.final_w, resumed.final_w))
        << "async run diverged after kill at update " << k;
    EXPECT_EQ(baseline.sim_seconds, resumed.sim_seconds);
  }
}

TEST(Resume, AsyncTornSlotIsQuarantinedWithDiagnostic) {
  // The async loop resumes through the same checkpoint plane as the sync
  // loops: a torn newest slot is quarantined with the stderr diagnostic, and
  // the run continues from the older slot to the uninterrupted run's bytes.
  const auto split = make_split();
  appfl::core::AsyncConfig acfg;
  acfg.run = base_config(Algorithm::kFedAvg);
  acfg.run.rounds = 4;  // 12 applied updates
  const auto baseline = appfl::core::run_async(acfg, split);

  TempDir dir("appfl_resume_async_torn");
  appfl::core::AsyncConfig killed = acfg;
  killed.run.checkpoint_dir = dir.str();
  killed.run.halt_after_round = 6;  // slots hold updates 5 and 6
  (void)appfl::core::run_async(killed, split);
  const fs::path newest = dir.path / CheckpointStore::kSlotB;
  std::vector<std::uint8_t> torn(8, 0x55);
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(torn.data()),
             static_cast<std::streamsize>(torn.size()));

  appfl::core::AsyncConfig resumed_cfg = acfg;
  resumed_cfg.run.checkpoint_dir = dir.str();
  resumed_cfg.run.resume_from = dir.str();
  testing::internal::CaptureStderr();
  const auto resumed = appfl::core::run_async(resumed_cfg, split);
  const std::string err = testing::internal::GetCapturedStderr();
  const std::string warning = "warning: checkpoint recovery: slot_b.ckpt";
  ASSERT_NE(err.find(warning), std::string::npos) << err;
  EXPECT_EQ(err.find(warning, err.find(warning) + 1), std::string::npos)
      << "exactly one slot should be quarantined: " << err;
  EXPECT_TRUE(fs::exists(dir.path / (std::string(CheckpointStore::kSlotB) +
                                     ".quarantined")));
  EXPECT_EQ(resumed.resumed_from_update, 5U);
  EXPECT_TRUE(same_bits(baseline.final_w, resumed.final_w));
  EXPECT_EQ(baseline.sim_seconds, resumed.sim_seconds);
}

std::vector<std::uint8_t> slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Link counters are exported in ascending key order, and the slots two
// identical runs leave behind are byte-identical — whichever pool worker
// happened to send first on each link.
void expect_reproducible_slots(
    const std::string& name,
    const std::function<void(const std::string& dir)>& run) {
  TempDir first(name + "_1");
  TempDir second(name + "_2");
  run(first.str());
  run(second.str());
  CheckpointStore store(first.str());
  const auto rc = appfl::core::load_latest_checkpoint(store);
  ASSERT_TRUE(rc.has_value());
  ASSERT_GE(rc->comm.link_keys.size(), 2U);
  for (std::size_t i = 1; i < rc->comm.link_keys.size(); ++i) {
    EXPECT_LT(rc->comm.link_keys[i - 1], rc->comm.link_keys[i]);
  }
  for (const char* slot : {CheckpointStore::kSlotA, CheckpointStore::kSlotB}) {
    const std::vector<std::uint8_t> a = slurp(first.path / slot);
    ASSERT_FALSE(a.empty()) << slot;
    EXPECT_EQ(a, slurp(second.path / slot)) << slot << " differs";
  }
}

TEST(Resume, FaultedCheckpointsAreByteReproducible) {
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.rounds = 3;
  cfg.faults.drop = 0.2;
  cfg.faults.corrupt = 0.1;
  const auto split = make_split();
  expect_reproducible_slots("appfl_repro_sync", [&](const std::string& dir) {
    RunConfig c = cfg;
    c.checkpoint_dir = dir;
    (void)appfl::core::run_federated(c, split);
  });

  appfl::data::FemnistSpec spec;
  spec.num_writers = 200;
  spec.mean_samples_per_writer = 16;
  spec.test_size = 64;
  spec.seed = 7;
  const appfl::data::SyntheticPopulation pop(spec);
  RunConfig pcfg = cfg;
  pcfg.model = ModelKind::kLogistic;
  pcfg.local_steps = 1;
  pcfg.batch_size = 8;
  pcfg.population = 200;
  pcfg.participants_per_round = 16;
  pcfg.tree_fan_out = 4;
  expect_reproducible_slots("appfl_repro_pop", [&](const std::string& dir) {
    RunConfig c = pcfg;
    c.checkpoint_dir = dir;
    (void)appfl::core::run_population(c, pop);
  });
}

// ---------------------------------------------------------------------------
// CheckpointStore: the crash-consistency substrate.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> payload_of(char fill, std::size_t n = 64) {
  return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(fill));
}

void write_raw(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointStore, AlternatesSlotsAndLoadsNewest) {
  TempDir dir("appfl_store_ab");
  CheckpointStore store(dir.str());
  store.save(payload_of('a'), 1);
  store.save(payload_of('b'), 2);
  EXPECT_TRUE(fs::exists(dir.path / CheckpointStore::kSlotA));
  EXPECT_TRUE(fs::exists(dir.path / CheckpointStore::kSlotB));
  store.save(payload_of('c'), 3);

  CheckpointStore fresh(dir.str());
  const auto loaded = fresh.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 3U);
  EXPECT_EQ(loaded->payload, payload_of('c'));
  EXPECT_EQ(fresh.report().corrupt_quarantined, 0U);
}

TEST(CheckpointStore, SaveAfterRecoveryOverwritesTheOtherSlot) {
  TempDir dir("appfl_store_ab_resume");
  {
    CheckpointStore store(dir.str());
    store.save(payload_of('a'), 1);
    store.save(payload_of('b'), 2);
  }
  CheckpointStore recovered(dir.str());
  const auto loaded = recovered.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 2U);
  // The next save must overwrite the slot we did NOT load from (seq 1's),
  // so seq 2 stays on disk until seq 3 is fully committed.
  recovered.save(payload_of('c'), 3);
  CheckpointStore verify(dir.str());
  const auto newest = verify.load_latest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->sequence, 3U);
  EXPECT_EQ(newest->payload, payload_of('c'));
}

TEST(CheckpointStore, TornSlotIsQuarantinedNeverFatal) {
  TempDir dir("appfl_store_torn");
  {
    CheckpointStore store(dir.str());
    store.save(payload_of('a'), 1);
    store.save(payload_of('b'), 2);
  }
  // Simulate a crash mid-write: slot B (the newer one) is truncated to a
  // prefix, as if the machine died before the final blocks hit disk.
  const fs::path slot_b = dir.path / CheckpointStore::kSlotB;
  std::vector<std::uint8_t> torn(8, 0x55);
  write_raw(slot_b, torn);

  CheckpointStore recovered(dir.str());
  const auto loaded = recovered.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1U);  // falls back to the older good slot
  EXPECT_EQ(loaded->payload, payload_of('a'));
  EXPECT_EQ(recovered.report().corrupt_quarantined, 1U);
  EXPECT_FALSE(recovered.report().diagnostics.empty());
  EXPECT_FALSE(fs::exists(slot_b));
  EXPECT_TRUE(fs::exists(dir.path / (std::string(CheckpointStore::kSlotB) +
                                     ".quarantined")));
}

TEST(CheckpointStore, LeftoverTempAndGarbageSlotsAreHarmless) {
  TempDir dir("appfl_store_tmp");
  {
    CheckpointStore store(dir.str());
    store.save(payload_of('a'), 1);
  }
  // A crash exactly mid-save leaves a dangling temp file; a bit-rotted
  // second slot holds noise. Both must be shrugged off.
  write_raw(dir.path / "slot_b.ckpt.tmp", payload_of('x', 13));
  write_raw(dir.path / CheckpointStore::kSlotB, payload_of('y', 200));

  CheckpointStore recovered(dir.str());
  const auto loaded = recovered.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1U);
  EXPECT_EQ(recovered.report().corrupt_quarantined, 1U);
}

TEST(CheckpointStore, EmptyDirectoryLoadsNothing) {
  TempDir dir("appfl_store_empty");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_EQ(store.report().corrupt_quarantined, 0U);
}

TEST(CheckpointStore, ValidatorRejectionQuarantines) {
  TempDir dir("appfl_store_validator");
  {
    CheckpointStore store(dir.str());
    store.save(payload_of('a'), 1);
  }
  CheckpointStore picky(dir.str());
  const auto loaded = picky.load_latest(
      [](std::span<const std::uint8_t>) { return false; });
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(picky.report().corrupt_quarantined, 1U);
}

TEST(CheckpointStore, TornNewestSlotAtEveryLengthFallsBackPerFlavor) {
  // A crash mid-save can leave the newest slot cut at any byte. For one
  // real save per flavor (each async commit policy among them), every cut
  // is quarantined and the store loads the older slot, and a resume from
  // that slot reaches the uninterrupted run's final model.
  for (const std::string flavor : {"sync", "population", "async", "fedbuff",
                                   "fedcompass", "async-iiadmm"}) {
    TempDir dir("appfl_store_torn_every_" + flavor);
    save_two_slots(flavor, dir.str());
    std::string newest;
    {
      CheckpointStore probe(dir.str());
      const auto loaded = probe.load_latest();
      ASSERT_TRUE(loaded.has_value()) << flavor;
      ASSERT_EQ(loaded->sequence, 2U) << flavor;
      newest = loaded->slot;
    }
    {
      // The cut slot carries its policy's state.
      CheckpointStore probe(dir.str());
      const auto ckpt = appfl::core::load_latest_checkpoint(probe);
      ASSERT_TRUE(ckpt.has_value()) << flavor;
      if (flavor == "fedbuff") EXPECT_EQ(ckpt->buffer.size(), 2U);
      if (flavor == "fedcompass") {
        ASSERT_EQ(ckpt->assigned_steps.size(), 2U);
        EXPECT_NE(ckpt->assigned_steps[0], ckpt->assigned_steps[1]);
      }
      if (flavor == "async-iiadmm") {
        EXPECT_EQ(ckpt->server_primal.size(), 2U);
        EXPECT_EQ(ckpt->server_dual.size(), 2U);
        EXPECT_EQ(ckpt->w_sent.size(), 2U);
      }
    }
    const fs::path torn = dir.path / newest;
    const fs::path quarantined = dir.path / (newest + ".quarantined");
    const std::vector<std::uint8_t> full = slurp(torn);
    ASSERT_FALSE(full.empty()) << flavor;
    for (std::size_t n = 0; n < full.size(); ++n) {
      write_raw(torn, std::vector<std::uint8_t>(full.begin(),
                                                full.begin() + n));
      CheckpointStore store(dir.str());
      const auto ckpt = appfl::core::load_latest_checkpoint(store);
      ASSERT_TRUE(ckpt.has_value()) << flavor << " cut at " << n;
      ASSERT_EQ(ckpt->completed, 1U) << flavor << " cut at " << n;
      ASSERT_EQ(store.report().corrupt_quarantined, 1U)
          << flavor << " cut at " << n;
      ASSERT_TRUE(fs::exists(quarantined)) << flavor << " cut at " << n;
      fs::remove(quarantined);
    }
    EXPECT_TRUE(same_bits(run_flavor(flavor, dir.str(), dir.str()),
                          run_flavor(flavor, "", "")))
        << flavor << " resumed from the fallback slot diverged";
  }
}

TEST(Resume, CrashDuringSaveAlwaysLeavesLoadableCheckpoint) {
  // End-to-end mid-save crash: run to round 4 (checkpoints at 1..4), then
  // clobber the most recent slot with a partial write. Recovery must land
  // on round 3's snapshot and continue to a full-length run whose final
  // model equals the baseline killed-at-3 resume.
  const auto split = make_split();
  const RunConfig cfg = base_config(Algorithm::kFedAvg);
  const RunResult baseline = appfl::core::run_federated(cfg, split);

  TempDir dir("appfl_resume_midsave");
  RunConfig killed = cfg;
  killed.checkpoint_dir = dir.str();
  killed.halt_after_round = 4;
  (void)appfl::core::run_federated(killed, split);

  // Find the newest slot (sequence 4) and tear it.
  CheckpointStore probe(dir.str());
  const auto newest = probe.load_latest();
  ASSERT_TRUE(newest.has_value());
  ASSERT_EQ(newest->sequence, 4U);
  const fs::path torn_path = dir.path / newest->slot;
  std::ifstream in(torn_path, std::ios::binary);
  std::vector<char> full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  full.resize(full.size() / 3);  // the crash point
  std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
  out.write(full.data(), static_cast<std::streamsize>(full.size()));
  out.close();

  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = dir.str();
  resumed_cfg.resume_from = dir.str();
  const RunResult resumed = appfl::core::run_federated(resumed_cfg, split);
  EXPECT_EQ(resumed.resumed_from_round, 3U);
  EXPECT_TRUE(same_bits(baseline.final_parameters, resumed.final_parameters));
}

TEST(Resume, ObservabilityCountersContinueAndSpansRestart) {
  // The obs×resume contract: (a) enabling the plane changes no result bits;
  // (b) traffic counters CONTINUE across the resume (they ride the
  // checkpointed TrafficStats, so the resumed run's totals equal the
  // straight run's); (c) spans RESTART — the resumed run's trace covers only
  // the rounds this process executed.
  const auto split = make_split();
  const RunConfig cfg_off = base_config(Algorithm::kFedAvg);
  const RunResult baseline_off = appfl::core::run_federated(cfg_off, split);

  TempDir dir("appfl_resume_obs");
  fs::create_directories(dir.path);
  const std::string trace_path = (dir.path / "trace.json").string();
  const std::string jsonl_path = (dir.path / "metrics.jsonl").string();

  RunConfig cfg = cfg_off;
  cfg.obs_level = "trace";

  // (a) full instrumented run: bit-identical to the obs-off baseline.
  const RunResult straight = appfl::core::run_federated(cfg, split);
  ASSERT_TRUE(same_bits(baseline_off.final_parameters,
                        straight.final_parameters))
      << "enabling observability changed the result";

  // Kill at round 3, then resume with trace + metrics stream on.
  const std::uint32_t k = 3;
  RunConfig killed = cfg;
  killed.checkpoint_dir = (dir.path / "ckpt").string();
  killed.halt_after_round = k;
  (void)appfl::core::run_federated(killed, split);

  RunConfig resumed_cfg = cfg;
  resumed_cfg.checkpoint_dir = killed.checkpoint_dir;
  resumed_cfg.resume_from = killed.checkpoint_dir;
  resumed_cfg.trace_out = trace_path;
  resumed_cfg.metrics_out = jsonl_path;
  const RunResult resumed = appfl::core::run_federated(resumed_cfg, split);
  ASSERT_EQ(resumed.resumed_from_round, k);
  EXPECT_TRUE(same_bits(baseline_off.final_parameters,
                        resumed.final_parameters));

  // (b) counters continue: the resumed run's traffic totals (restored from
  // the checkpoint, then grown) equal the straight run's. The checkpointed
  // leg also wrote checkpoints, so only the comm-plane ledger must match.
  EXPECT_EQ(straight.traffic.bytes_up, resumed.traffic.bytes_up);
  EXPECT_EQ(straight.traffic.bytes_down, resumed.traffic.bytes_down);
  EXPECT_EQ(straight.traffic.messages_up, resumed.traffic.messages_up);
  EXPECT_EQ(straight.traffic.messages_down, resumed.traffic.messages_down);

  const auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto count_occurrences = [](const std::string& text,
                                    const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };

  // (c) spans restart: exactly rounds − k fl.round spans in the trace.
  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty()) << "trace file was not written";
  EXPECT_EQ(count_occurrences(trace, "\"name\":\"fl.round\""),
            cfg.rounds - k);

  // The JSONL stream covers only the resumed rounds (first line is round
  // k+1) and its summary reports the CONTINUED traffic totals.
  const std::string jsonl = slurp(jsonl_path);
  ASSERT_FALSE(jsonl.empty()) << "metrics stream was not written";
  EXPECT_NE(jsonl.find("\"type\":\"round\",\"round\":" + std::to_string(k + 1)),
            std::string::npos);
  EXPECT_EQ(jsonl.find("\"type\":\"round\",\"round\":1,"), std::string::npos);
  EXPECT_NE(
      jsonl.find("\"bytes_up\":" + std::to_string(straight.traffic.bytes_up)),
      std::string::npos);
}

}  // namespace

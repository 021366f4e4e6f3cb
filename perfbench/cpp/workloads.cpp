// The benchmark workloads. Each definition sits next to its one-line
// reason; inputs are generated here from the seed, and the framework only
// receives the generated splits and populations. BENCHMARK.json lists all
// but async-fedbuff, whose wall time follows host load through the kernel-pool
// fan-out of its orchestration thread (see perfbench/README.md); it stays
// runnable here for the change that fixes that fan-out.
#include <memory>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "core/async_runner.hpp"
#include "core/base.hpp"
#include "core/event_engine.hpp"
#include "core/runner.hpp"
#include "hw/device.hpp"

namespace perfbench {

namespace {

namespace comm = appfl::comm;
namespace nn = appfl::nn;
namespace hw = appfl::hw;

/// Forwards every call to the algorithm's own server and stamps wall and
/// CPU clocks on compute_global, which the sync runner calls once at the
/// start of every round and once after the last. Validation runs on this
/// object's copy of the model and test set through BaseServer::validate.
class StampingServer : public core::BaseServer {
 public:
  StampingServer(const core::RunConfig& config,
                 std::unique_ptr<nn::Module> model, data::TensorDataset test,
                 std::size_t num_clients,
                 std::unique_ptr<core::BaseServer> inner)
      : BaseServer(config, std::move(model), std::move(test), num_clients),
        inner_(std::move(inner)) {}

  std::vector<float> compute_global(std::uint32_t round) override {
    wall.push_back(now_s());
    cpu.push_back(cpu_s());
    return inner_->compute_global(round);
  }
  void update(const std::vector<comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override {
    inner_->update(locals, global, round);
  }
  bool absorb(const comm::GatherBatch& batch, std::span<const float> global,
              std::uint32_t round) override {
    return inner_->absorb(batch, global, round);
  }
  float current_rho() const override { return inner_->current_rho(); }

  std::vector<double> wall;
  std::vector<double> cpu;

 private:
  std::unique_ptr<core::BaseServer> inner_;
};

// ---- workload definitions -----------------------------------------------------

/// Keeps at most `cap` samples of every client shard (its first ones; the
/// generators draw labels independently per sample, so a prefix is a random
/// subset of the writer's data).
void cap_shards(data::FederatedSplit& split, std::size_t cap) {
  std::vector<std::size_t> keep(cap);
  for (std::size_t i = 0; i < cap; ++i) keep[i] = i;
  for (data::TensorDataset& shard : split.clients) {
    if (shard.size() > cap) shard = shard.subset(keep);
  }
}

// sync-femnist-cnn: FedAvg, paper CNN, 203 FEMNIST-like writers, 8 sampled
// per round, validation every round, MPI, no faults, ε = ∞. Shards are
// capped at the median writer size (206): the smaller half of the writers
// keep their unequal sizes, so pool threads still idle behind the largest
// sampled writer, while the heavy upper tail, which made a round's work
// swing with the cohort a seed draws, is cut.
data::FederatedSplit femnist_inputs(std::uint64_t seed, bool smoke) {
  data::FemnistSpec s;
  s.num_writers = smoke ? 24 : 203;
  s.mean_samples_per_writer = smoke ? 48 : 206;
  s.test_size = smoke ? 128 : 1024;
  s.seed = seed;
  data::FederatedSplit split = data::femnist_like(s);
  cap_shards(split, s.mean_samples_per_writer);
  return split;
}

core::RunConfig femnist_config(bool smoke) {
  core::RunConfig c;
  c.algorithm = core::Algorithm::kFedAvg;
  c.model = core::ModelKind::kPaperCnn;
  c.rounds = smoke ? 3 : 5;
  c.local_steps = 2;
  c.batch_size = 16;
  c.lr = 0.1F;
  // ⌈f·P⌉ = 8 sampled writers per round.
  c.client_fraction = 7.5 / (smoke ? 24.0 : 203.0);
  c.validate_every_round = true;
  c.protocol = comm::Protocol::kMpi;
  return c;
}

// sync-iiadmm-dp: IIADMM with Laplace output perturbation at ε = 5, MLP with
// 1024 hidden units (814k parameters), 32 equal IID clients of 8 samples,
// batch 8, full participation, gRPC. Duplicated and reordered frames keep
// the CRC envelope and duplicate discards running without losing updates.
// One kernel thread: with the default pool, every message CRC, consensus
// reduction and validation GEMM on the server thread fans out and wakes
// halted vCPUs, which doubled host steal and let round_s follow host load
// (spread 0.26-0.32 over ten runs on a loaded host). Serial server-side
// kernels cost about 10% of round time and leave the parameter-bound work
// this workload exists for (noise, codec, CRC, absorb) in every round.
data::FederatedSplit iiadmm_inputs(std::uint64_t seed, bool smoke) {
  data::SynthImageSpec s;
  s.num_clients = smoke ? 8 : 32;
  s.train_per_client = 8;
  s.test_size = smoke ? 128 : 512;
  s.seed = seed;
  return data::mnist_like(s);
}

core::RunConfig iiadmm_config(bool smoke) {
  core::RunConfig c;
  c.algorithm = core::Algorithm::kIIAdmm;
  c.model = core::ModelKind::kMlp;
  c.mlp_hidden = smoke ? 128 : 1024;
  c.rounds = smoke ? 3 : 6;
  c.local_steps = 2;
  c.batch_size = 8;
  c.epsilon = 5.0;
  c.validate_every_round = true;
  c.protocol = comm::Protocol::kGrpc;
  c.faults.duplicate = 0.02;
  c.faults.reorder = 0.02;
  c.kernel_threads = 1;
  return c;
}

// async-fedbuff: FedBuff with K = 4 on a mixed A100/V100 fleet of 16
// FEMNIST-like writers, MLP with 128 hidden units, default kernel threads,
// validation every 16 arrivals. Writers are drawn around 360 samples and
// capped at 180 (about 94% reach the cap), so a dispatch does the same work
// whichever writers a seed draws; the fleet's speed spread comes from the
// A100/V100 mix.
data::FederatedSplit async_inputs(std::uint64_t seed, bool smoke) {
  data::FemnistSpec s;
  s.num_writers = smoke ? 8 : 16;
  s.mean_samples_per_writer = smoke ? 64 : 360;
  s.test_size = smoke ? 128 : 512;
  s.seed = seed;
  data::FederatedSplit split = data::femnist_like(s);
  cap_shards(split, smoke ? 32 : 180);
  return split;
}

core::AsyncConfig async_config(bool smoke) {
  core::AsyncConfig a;
  a.run.algorithm = core::Algorithm::kFedAvg;
  a.run.model = core::ModelKind::kMlp;
  a.run.mlp_hidden = 128;
  a.run.local_steps = 1;
  a.run.batch_size = 32;
  a.total_updates = smoke ? 32 : 128;
  a.devices = {hw::a100(), hw::v100()};
  a.validate_every = 16;
  a.strategy.kind = core::AsyncStrategyKind::kFedBuff;
  a.strategy.buffer_k = kFedBuffK;
  return a;
}

core::RunConfig async_run_config(bool smoke) { return async_config(smoke).run; }

// population-tree: 10 000 lazy FEMNIST-like writers, 250 sampled per round,
// fan-out-16 aggregation tree, logistic model, MPI, no faults. The recipe
// (population_spec) is defined below, outside this file's private scope.
core::RunConfig population_config(bool smoke) {
  core::RunConfig c;
  c.algorithm = core::Algorithm::kFedAvg;
  c.model = core::ModelKind::kLogistic;
  c.rounds = 3;
  c.local_steps = 1;
  c.batch_size = 32;
  c.population = smoke ? 500 : 10000;
  c.participants_per_round = smoke ? 32 : 250;
  c.tree_fan_out = 16;
  c.validate_every_round = true;
  c.protocol = comm::Protocol::kMpi;
  return c;
}

/// The population replay needs one shard and the test set; a two-writer
/// split of materialized shards carries both.
data::FederatedSplit population_inputs(std::uint64_t seed, bool smoke) {
  const data::SyntheticPopulation pop(population_spec(seed, smoke));
  data::FederatedSplit s;
  s.clients.push_back(pop.materialize(1));
  s.clients.push_back(pop.materialize(2));
  s.test = pop.test_set();
  return s;
}

// ---- episode runners ------------------------------------------------------------

/// Sums per-round participation and losses of a sync or population run.
void count_updates(const core::RunResult& r, Episode& e) {
  for (const core::RoundMetrics& m : r.rounds) {
    e.attempted += m.participants;
    e.applied += m.responders;
    e.failed += m.participants - m.responders;
    e.retries += m.retries;
    e.crc_failures += m.crc_failures;
  }
  e.bytes = r.traffic.total_bytes();
  e.final_acc = r.final_accuracy;
}

struct SyncSetup {
  std::vector<std::unique_ptr<core::BaseClient>> clients;
  std::unique_ptr<StampingServer> server;
};

/// Builds a sync run's model, clients and validating server from `split`.
SyncSetup build_sync(const core::RunConfig& config, data::FederatedSplit split) {
  SyncSetup s;
  std::unique_ptr<nn::Module> model = core::build_model(config, split.test);
  s.clients.reserve(split.clients.size());
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    s.clients.push_back(core::build_client(static_cast<std::uint32_t>(p + 1),
                                           config, *model,
                                           std::move(split.clients[p])));
  }
  const std::size_t n = s.clients.size();
  std::unique_ptr<nn::Module> validation_model = model->clone();
  s.server = std::make_unique<StampingServer>(
      config, std::move(validation_model), std::move(split.test), n,
      core::build_server(config, std::move(model), data::TensorDataset(), n));
  return s;
}

core::RunConfig seeded(core::RunConfig c, std::uint64_t seed,
                       const std::string& obs) {
  c.seed = seed;
  c.obs_level = obs;
  return c;
}

Episode sync_episode(const Workload& w, std::uint64_t seed, bool smoke,
                     const std::string& obs) {
  Episode e;
  const double t0 = now_s();
  data::FederatedSplit split = w.inputs(seed, smoke);
  e.synth_s = now_s() - t0;
  const core::RunConfig config = seeded(w.config(smoke), seed, obs);
  SyncSetup s = build_sync(config, std::move(split));
  const core::RunResult r = core::run_federated(config, *s.server, s.clients);

  // wall[r-1] opens round r; wall[R] follows the last round's validation.
  const std::vector<double>& wall = s.server->wall;
  const std::vector<double>& cpu = s.server->cpu;
  e.setup_s = wall.front() - t0;
  e.rounds = wall.size() - 1;
  e.loop_wall_s = wall.back() - wall.front();
  for (std::size_t i = 2; i < wall.size(); ++i) {  // round 1 is warm-up
    e.round_wall.push_back(wall[i] - wall[i - 1]);
    e.round_cpu.push_back(cpu[i] - cpu[i - 1]);
  }
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    e.acc_curve.push_back(r.rounds[i].test_accuracy);
    if (e.tta_s < 0.0 && r.rounds[i].test_accuracy >= tta_target(w, smoke)) {
      e.tta_s = wall[i + 1] - t0;
    }
  }
  count_updates(r, e);
  e.final_params = r.final_parameters;
  return e;
}

/// A sync set-up on its own: inputs, model, clients and server, no rounds.
double sync_setup(const Workload& w, std::uint64_t seed, bool smoke) {
  const double t0 = now_s();
  const core::RunConfig config = seeded(w.config(smoke), seed, "off");
  SyncSetup s = build_sync(config, w.inputs(seed, smoke));
  return now_s() - t0;
}

Episode async_episode(const Workload& w, std::uint64_t seed, bool smoke,
                      const std::string& obs) {
  Episode e;
  const double t0 = now_s();
  const data::FederatedSplit split = w.inputs(seed, smoke);
  e.synth_s = now_s() - t0;
  core::AsyncConfig a = async_config(smoke);
  a.run = seeded(a.run, seed, obs);

  // run_async builds its model, clients and server inside the call; the
  // same public calls, timed here on identical inputs, stand in for that
  // pre-loop part of the call.
  const double b0 = now_s();
  {
    auto model = core::build_model(a.run, split.test);
    std::vector<std::unique_ptr<core::BaseClient>> clients;
    for (std::size_t p = 0; p < split.clients.size(); ++p) {
      clients.push_back(core::build_client(static_cast<std::uint32_t>(p + 1),
                                           a.run, *model, split.clients[p]));
    }
    auto server = core::build_server(a.run, std::move(model), split.test,
                                     split.clients.size());
  }
  const double in_call_setup = now_s() - b0;

  const double c0 = now_s();
  const double cpu0 = cpu_s();
  const core::AsyncRunResult r = core::run_async(a, split);
  const double call = now_s() - c0;
  const double call_cpu = cpu_s() - cpu0;

  e.setup_s = (b0 - t0) + in_call_setup;
  e.loop_wall_s = call - in_call_setup;
  e.rounds = r.committed_updates;
  const double commits = static_cast<double>(std::max<std::size_t>(1, e.rounds));
  e.round_wall.push_back(e.loop_wall_s / commits);
  e.round_cpu.push_back(call_cpu / commits);
  // Clients train at dispatch, so by the v-th arrival v + (clients in
  // flight) of the episode's trainings are done; the loop's wall is
  // apportioned by that share of its work.
  const double trainings = static_cast<double>(r.applied_updates +
                                               r.dropped_updates);
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const double acc = r.events[i].test_accuracy;
    if (acc < 0.0) continue;  // not validated at this arrival
    e.acc_curve.push_back(acc);
    if (e.tta_s < 0.0 && acc >= tta_target(w, smoke)) {
      const double done = std::min(
          trainings, static_cast<double>(i + 1 + split.clients.size()));
      e.tta_s = e.setup_s + e.loop_wall_s * done / trainings;
    }
  }
  e.attempted = r.applied_updates + r.dropped_updates;
  e.applied = r.applied_updates;
  e.failed = r.dropped_updates;
  e.final_acc = r.final_accuracy;
  e.final_params = r.final_w;
  return e;
}

Episode population_episode(const Workload& w, std::uint64_t seed, bool smoke,
                           const std::string& obs) {
  Episode e;
  const double t0 = now_s();
  const data::SyntheticPopulation pop(population_spec(seed, smoke));
  const core::RunConfig config = seeded(w.config(smoke), seed, obs);
  const double c0 = now_s();
  const double cpu0 = cpu_s();
  const core::PopulationRunResult r = core::run_population(config, pop);
  const double call = now_s() - c0;
  const double call_cpu = cpu_s() - cpu0;
  // The engine reports its round loop's wall; the rest of the call is its
  // set-up (test-set synthesis, model, network) and the final validation.
  e.loop_wall_s = r.engine.wall_seconds;
  e.setup_s = (c0 - t0) + (call - e.loop_wall_s);
  e.synth_s = c0 - t0;
  e.rounds = r.run.rounds.size();
  const double rounds = static_cast<double>(std::max<std::size_t>(1, e.rounds));
  e.round_wall.push_back(e.loop_wall_s / rounds);
  e.round_cpu.push_back(call_cpu / rounds);
  for (std::size_t i = 0; i < r.run.rounds.size(); ++i) {
    e.acc_curve.push_back(r.run.rounds[i].test_accuracy);
    if (e.tta_s < 0.0 && r.run.rounds[i].test_accuracy >= tta_target(w, smoke)) {
      e.tta_s = e.setup_s + e.loop_wall_s * static_cast<double>(i + 1) / rounds;
    }
  }
  count_updates(r.run, e);
  e.events = r.engine.events_processed;
  e.final_params = r.run.final_parameters;
  return e;
}

}  // namespace

data::FemnistSpec population_spec(std::uint64_t seed, bool smoke) {
  data::FemnistSpec s;
  s.num_writers = smoke ? 500 : 10000;
  s.test_size = smoke ? 128 : 1024;
  s.seed = seed;
  return s;
}

const std::vector<Workload>& workloads() {
  // name, runner, tta target, final_acc floor, episode, set-up only, config,
  // inputs. Each workload's reason sits beside its config above.
  static const std::vector<Workload> all = {
      {"sync-femnist-cnn", Runner::kSync, 0.03, 0.08, sync_episode, sync_setup,
       femnist_config, femnist_inputs},
      {"sync-iiadmm-dp", Runner::kSync, 0.15, 0.15, sync_episode, sync_setup,
       iiadmm_config, iiadmm_inputs},
      {"async-fedbuff", Runner::kAsync, 0.025, 0.08, async_episode, nullptr,
       async_run_config, async_inputs},
      {"population-tree", Runner::kPopulation, 0.05, 0.2, population_episode,
       nullptr, population_config, population_inputs},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

// Population-scale event engine (core/event_engine): sampled rounds over a
// lazy synthetic population, uplinks routed through the leader/sub-leader
// aggregation tree. The load-bearing claims under test: the tree changes
// ROUTING and COST only (final parameters byte-identical to the flat gather
// at any fan-out), and the whole run is a pure function of (config,
// population) — identical across reruns, kernel thread counts, and
// protocols.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstring>
#include <set>
#include <vector>

#include "core/agg_tree.hpp"
#include "core/async_runner.hpp"
#include "core/checkpoint.hpp"
#include "core/event_engine.hpp"
#include "data/synth.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::PopulationRunResult;
using appfl::core::RunConfig;

appfl::data::FemnistSpec pop_spec(std::size_t writers,
                                  std::uint64_t seed = 11) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = writers;
  spec.mean_samples_per_writer = 16;
  spec.test_size = 64;
  spec.seed = seed;
  return spec;
}

RunConfig engine_config(std::size_t population, std::size_t participants,
                        std::size_t fan_out = 0) {
  RunConfig cfg;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  cfg.population = population;
  cfg.participants_per_round = participants;
  cfg.tree_fan_out = fan_out;
  cfg.seed = 11;
  cfg.validate_every_round = false;
  return cfg;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && !a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(EventEngine, RoundCompletesWithSampledCohort) {
  const appfl::data::SyntheticPopulation pop(pop_spec(400));
  const auto result =
      appfl::core::run_population(engine_config(400, 32), pop);
  ASSERT_EQ(result.run.rounds.size(), 3U);
  ASSERT_EQ(result.participants_by_round.size(), 3U);
  for (const auto& r : result.run.rounds) {
    EXPECT_EQ(r.participants, 32U);
    EXPECT_EQ(r.responders, 32U);
  }
  for (const auto& round : result.participants_by_round) {
    ASSERT_EQ(round.size(), 32U);
    for (std::size_t i = 0; i < round.size(); ++i) {
      EXPECT_GE(round[i], 1U);
      EXPECT_LE(round[i], 400U);
      if (i > 0) {
        EXPECT_LT(round[i - 1], round[i]);
      }
    }
  }
  // Traffic: k uplinks and k accounted downlinks per round.
  EXPECT_EQ(result.run.traffic.messages_up, 3U * 32U);
  EXPECT_EQ(result.run.traffic.messages_down, 3U * 32U);
  EXPECT_GT(result.run.final_accuracy, -1.0F);
}

TEST(EventEngine, DeterministicAcrossReruns) {
  const appfl::data::SyntheticPopulation pop(pop_spec(300));
  const RunConfig cfg = engine_config(300, 24, /*fan_out=*/4);
  const auto a = appfl::core::run_population(cfg, pop);
  const auto b = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(same_bits(a.run.final_parameters, b.run.final_parameters));
  EXPECT_EQ(a.participants_by_round, b.participants_by_round);
  EXPECT_EQ(a.run.traffic.bytes_up, b.run.traffic.bytes_up);
  // A different seed samples different cohorts.
  RunConfig other = cfg;
  other.seed = 12;
  const auto c = appfl::core::run_population(other, pop);
  EXPECT_NE(a.participants_by_round, c.participants_by_round);
}

TEST(EventEngine, TreeIsByteIdenticalToFlatGatherAtAnyFanOut) {
  const appfl::data::SyntheticPopulation pop(pop_spec(300));
  const auto flat = appfl::core::run_population(engine_config(300, 30), pop);
  // Fan-out 2 over 30 slots is depth 5 — well past one sub-leader level.
  for (const std::size_t fan_out : {2UL, 7UL, 16UL}) {
    const auto tree = appfl::core::run_population(
        engine_config(300, 30, fan_out), pop);
    EXPECT_TRUE(
        same_bits(flat.run.final_parameters, tree.run.final_parameters))
        << "fan-out " << fan_out;
    EXPECT_EQ(flat.participants_by_round, tree.participants_by_round);
    EXPECT_EQ(tree.engine.tree_depth,
              appfl::core::AggTree(30, fan_out).depth());
  }
}

TEST(EventEngine, TreeFanoutEnvReachesTheEngine) {
  // APPFL_TREE_FANOUT applies at run start in every loop, not only in the
  // command-line front end: a flat-configured run builds the tree.
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  ::setenv("APPFL_TREE_FANOUT", "4", 1);
  const auto result = appfl::core::run_population(engine_config(200, 16), pop);
  ::unsetenv("APPFL_TREE_FANOUT");
  EXPECT_GT(result.engine.tree_depth, 1U);
  EXPECT_EQ(result.run.config.tree_fan_out, 4U);
}

TEST(EventEngine, KernelThreadCountDoesNotChangeTheResult) {
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  RunConfig cfg = engine_config(200, 16, /*fan_out=*/4);
  cfg.kernel_threads = 1;
  const auto serial = appfl::core::run_population(cfg, pop);
  cfg.kernel_threads = 4;
  const auto parallel = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(
      same_bits(serial.run.final_parameters, parallel.run.final_parameters));
  EXPECT_EQ(serial.participants_by_round, parallel.participants_by_round);
}

TEST(EventEngine, GrpcProtocolArmIsDeterministic) {
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  RunConfig cfg = engine_config(200, 16, /*fan_out=*/4);
  cfg.protocol = appfl::comm::Protocol::kGrpc;
  const auto a = appfl::core::run_population(cfg, pop);
  const auto b = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(same_bits(a.run.final_parameters, b.run.final_parameters));
  // gRPC jitter makes per-client transfers differ, so sim time is positive
  // and distinct from the MPI arm's.
  EXPECT_GT(a.run.sim_comm_seconds, 0.0);
  cfg.protocol = appfl::comm::Protocol::kMpi;
  const auto mpi = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(same_bits(a.run.final_parameters, mpi.run.final_parameters));
  EXPECT_NE(a.run.sim_comm_seconds, mpi.run.sim_comm_seconds);
}

TEST(EventEngine, UplinkDropsReduceRespondersDeterministically) {
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  RunConfig cfg = engine_config(200, 24, /*fan_out=*/4);
  cfg.faults.drop = 0.3;
  const auto a = appfl::core::run_population(cfg, pop);
  const auto b = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(same_bits(a.run.final_parameters, b.run.final_parameters));
  EXPECT_GT(a.run.traffic.drops, 0U);
  std::uint64_t responders = 0;
  for (const auto& r : a.run.rounds) {
    EXPECT_EQ(r.participants, 24U);
    EXPECT_LE(r.responders, r.participants);
    responders += r.responders;
  }
  EXPECT_LT(responders, 3U * 24U);
  EXPECT_EQ(responders + a.run.traffic.drops, 3U * 24U);
}

TEST(EventEngine, EngineStatsAreFilledIn) {
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  const auto result =
      appfl::core::run_population(engine_config(200, 16, 4), pop);
  const auto& eng = result.engine;
  // 3 rounds × (16 arrivals + 16 uplinks + group-readies + root reduce).
  EXPECT_GE(eng.events_processed, 3U * 33U);
  EXPECT_GT(eng.wall_seconds, 0.0);
  EXPECT_GT(eng.events_per_second, 0.0);
  EXPECT_EQ(eng.mailbox_overflows, 0U);
  EXPECT_EQ(eng.tree_depth, appfl::core::AggTree(16, 4).depth());
  EXPECT_EQ(eng.tree_leaf_groups, 4U);
#ifdef __linux__
  EXPECT_GT(eng.peak_rss_bytes, 0U);
#endif
}

TEST(EventEngine, DpParticipationLedgerBoundsEpsilon) {
  const appfl::data::SyntheticPopulation pop(pop_spec(50));
  RunConfig cfg = engine_config(50, 10);
  cfg.epsilon = 2.0;
  cfg.clip = 1.0F;
  const auto result = appfl::core::run_population(cfg, pop);
  // Worst-case client participation is between 1 round (someone sampled
  // once) and all 3; spent epsilon = max participation count × per-round.
  EXPECT_GE(result.run.dp_epsilon_spent, 2.0);
  EXPECT_LE(result.run.dp_epsilon_spent, 3U * 2.0);
}

TEST(EventEngine, ValidationRejectsUnsupportedConfigs) {
  RunConfig cfg = engine_config(100, 10);
  cfg.algorithm = Algorithm::kIIAdmm;
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg = engine_config(100, 101);  // participants > population
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg = engine_config(100, 10, /*fan_out=*/1);
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg = engine_config(100, 10);
  cfg.uplink_codec = appfl::comm::UplinkCodec::kFp16;
  EXPECT_THROW(cfg.validate(), appfl::Error);
  // Mailbox cap below the aggregation fan-in would drop updates
  // nondeterministically — rejected up front.
  cfg = engine_config(100, 10);
  cfg.mailbox_capacity = 9;
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg.mailbox_capacity = 10;
  cfg.validate();
  cfg = engine_config(100, 10, /*fan_out=*/4);
  cfg.mailbox_capacity = 4;  // >= tree fan-in is enough under a tree
  cfg.validate();
  // The population/size mismatch is caught at run time.
  const appfl::data::SyntheticPopulation pop(pop_spec(50));
  EXPECT_THROW(appfl::core::run_population(engine_config(100, 10), pop),
               appfl::Error);
}

TEST(EventEngine, AsyncRunnerRefusesPopulationConfigs) {
  appfl::core::AsyncConfig async_cfg;
  async_cfg.run = engine_config(100, 10);
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 3;
  spec.train_per_client = 16;
  spec.test_size = 32;
  const auto split = appfl::data::mnist_like(spec);
  EXPECT_THROW(appfl::core::run_async(async_cfg, split), appfl::Error);
}

TEST(EventEngine, BoundedMailboxesChangeNothingWhenSized) {
  const appfl::data::SyntheticPopulation pop(pop_spec(200));
  const auto unbounded =
      appfl::core::run_population(engine_config(200, 16, 4), pop);
  RunConfig cfg = engine_config(200, 16, 4);
  cfg.mailbox_capacity = 4;
  const auto bounded = appfl::core::run_population(cfg, pop);
  EXPECT_TRUE(same_bits(unbounded.run.final_parameters,
                        bounded.run.final_parameters));
  EXPECT_EQ(bounded.engine.mailbox_overflows, 0U);
  EXPECT_EQ(bounded.run.traffic.mailbox_overflows, 0U);
}

TEST(EventEngine, PopulationCheckpointTagsRoundTrip) {
  appfl::core::RunCheckpoint ckpt;
  ckpt.algorithm = "FedAvg";
  ckpt.fingerprint = {.seed = 11,
                      .num_clients = 1000,
                      .participants_per_round = 40,
                      .param_count = 3,
                      .total = 5};
  ckpt.completed = 2;
  ckpt.parameters = {1.0F, 2.0F, 3.0F};
  ckpt.server.kind = "population";
  ckpt.participation = {{3, 1}, {17, 2}, {999, 1}};
  ckpt.rng_state = {1, 2, 3, 4};
  ckpt.comm.stats.mailbox_overflows = 7;
  const auto bytes = appfl::core::encode_checkpoint(ckpt);
  const auto back = appfl::core::decode_checkpoint(bytes);
  EXPECT_EQ(back, ckpt);
  EXPECT_EQ(back.fingerprint.num_clients, 1000U);
  EXPECT_EQ(back.fingerprint.participants_per_round, 40U);
  EXPECT_EQ(back.participation, ckpt.participation);
  EXPECT_EQ(back.comm.stats.mailbox_overflows, 7U);
  // Classic checkpoints (population == 0) keep decoding unchanged.
  appfl::core::RunCheckpoint classic;
  classic.algorithm = "FedAvg";
  classic.fingerprint = {
      .seed = 1, .num_clients = 1, .param_count = 1, .total = 2};
  classic.completed = 1;
  classic.parameters = {5.0F};
  classic.server.kind = "fedavg";
  classic.clients.emplace_back().id = 1;
  const auto classic_back = appfl::core::decode_checkpoint(
      appfl::core::encode_checkpoint(classic));
  EXPECT_EQ(classic_back.fingerprint.participants_per_round, 0U);
  EXPECT_TRUE(classic_back.participation.empty());
}

TEST(EventEngine, LazyPopulationMaterializesPureFunctions) {
  const appfl::data::SyntheticPopulation pop(pop_spec(5000));
  EXPECT_EQ(pop.size(), 5000U);
  const auto a = pop.materialize(4321);
  const auto b = pop.materialize(4321);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 8U);  // generator floor
  ASSERT_FALSE(a.labels().empty());
  EXPECT_EQ(a.labels(), b.labels());
  ASSERT_EQ(a.inputs().data().size(), b.inputs().data().size());
  EXPECT_EQ(std::memcmp(a.inputs().raw(), b.inputs().raw(),
                        a.inputs().data().size() * sizeof(float)),
            0);
  // Distinct writers differ (recipes ride independent per-id streams).
  const auto c = pop.materialize(1);
  EXPECT_TRUE(c.labels() != a.labels() ||
              c.inputs().data().size() != a.inputs().data().size() ||
              std::memcmp(c.inputs().raw(), a.inputs().raw(),
                          a.inputs().data().size() * sizeof(float)) != 0);
}

}  // namespace

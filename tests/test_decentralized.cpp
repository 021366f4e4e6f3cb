// Decentralized (serverless) gossip FL extension: topology construction,
// Metropolis mixing properties, consensus contraction, and learning.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <limits>

#include "core/decentralized.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "scoped_kernel_config.hpp"

namespace {

using appfl::core::RunConfig;
using appfl::core::Topology;

appfl::data::FederatedSplit split_of(std::size_t clients,
                                     std::size_t per_client = 48) {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = clients;
  spec.train_per_client = per_client;
  spec.test_size = 128;
  spec.seed = 37;
  return appfl::data::mnist_like(spec);
}

RunConfig gossip_config() {
  RunConfig cfg;
  cfg.model = appfl::core::ModelKind::kMlp;
  cfg.mlp_hidden = 16;
  cfg.rounds = 8;
  cfg.local_steps = 1;
  cfg.batch_size = 32;
  cfg.lr = 0.1F;
  cfg.seed = 37;
  return cfg;
}

TEST(Topology, RingStructure) {
  const Topology t = appfl::core::ring_topology(6);
  EXPECT_EQ(t.num_nodes(), 6U);
  EXPECT_EQ(t.num_edges(), 6U);
  EXPECT_TRUE(t.connected());
  EXPECT_NO_THROW(t.validate());
  for (const auto& nbrs : t.adjacency) EXPECT_EQ(nbrs.size(), 2U);
}

TEST(Topology, TwoNodeRingIsASingleEdge) {
  const Topology t = appfl::core::ring_topology(2);
  EXPECT_EQ(t.num_edges(), 1U);
  EXPECT_NO_THROW(t.validate());
}

TEST(Topology, CompleteGraph) {
  const Topology t = appfl::core::complete_topology(5);
  EXPECT_EQ(t.num_edges(), 10U);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, RandomIsConnectedAndDeterministic) {
  const Topology a = appfl::core::random_topology(12, 4.0, 1);
  const Topology b = appfl::core::random_topology(12, 4.0, 1);
  EXPECT_TRUE(a.connected());
  EXPECT_NO_THROW(a.validate());
  EXPECT_EQ(a.adjacency, b.adjacency);
  EXPECT_GE(a.num_edges(), 12U);  // at least the ring backbone
  const Topology c = appfl::core::random_topology(12, 4.0, 2);
  EXPECT_NE(a.adjacency, c.adjacency);
}

TEST(Topology, ValidateRejectsAsymmetry) {
  Topology t;
  t.adjacency = {{1}, {}};
  EXPECT_THROW(t.validate(), appfl::Error);
  t.adjacency = {{0}};
  EXPECT_THROW(t.validate(), appfl::Error);  // self-loop
}

class MixingTest : public testing::TestWithParam<Topology> {};

TEST_P(MixingTest, MetropolisWeightsAreDoublyStochasticAndSymmetric) {
  const auto w = appfl::core::metropolis_weights(GetParam());
  const std::size_t n = w.size();
  for (std::size_t p = 0; p < n; ++p) {
    double row = 0.0;
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_GE(w[p][q], 0.0);
      EXPECT_NEAR(w[p][q], w[q][p], 1e-12);
      row += w[p][q];
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, MixingTest,
    testing::Values(appfl::core::ring_topology(4),
                    appfl::core::ring_topology(9),
                    appfl::core::complete_topology(6),
                    appfl::core::random_topology(10, 4.0, 3)),
    [](const testing::TestParamInfo<Topology>& info) {
      return "nodes" + std::to_string(info.param.num_nodes()) + "_edges" +
             std::to_string(info.param.num_edges());
    });

TEST(Gossip, DisagreementShrinksOverRounds) {
  const auto split = split_of(6);
  const auto result = appfl::core::run_decentralized(
      gossip_config(), split, appfl::core::complete_topology(6));
  ASSERT_EQ(result.round_disagreement.size(), 8U);
  // Nodes start identical, diverge by local training, and gossip must keep
  // pulling them together: late disagreement stays bounded by the early
  // post-training spread.
  const double early = result.round_disagreement.front();
  const double late = result.round_disagreement.back();
  EXPECT_LT(late, 4.0 * early + 1.0);
  EXPECT_GT(early, 0.0);
}

TEST(Gossip, AppliesTheKernelThreadSetting) {
  // Like run_federated and run_population, gossip applies
  // RunConfig::kernel_threads at its start; the guard restores the setting.
  const appfl::testutil::ScopedKernelConfig guard(0);
  RunConfig cfg = gossip_config();
  cfg.rounds = 1;
  cfg.kernel_threads = 3;
  appfl::core::run_decentralized(cfg, split_of(3),
                                 appfl::core::ring_topology(3));
  EXPECT_EQ(appfl::tensor::kernel_config().threads, 3U);
}

TEST(Gossip, RejectsSecureAggregation) {
  // Gossip has no server to unmask a sum; running would exchange plain
  // models while the caller asked for masking.
  RunConfig cfg = gossip_config();
  cfg.secure_agg = true;
  EXPECT_THROW(appfl::core::run_decentralized(
                   cfg, split_of(4), appfl::core::ring_topology(4)),
               appfl::Error);
}

TEST(Gossip, LearnsAboveChanceOnRingAndComplete) {
  const auto split = split_of(6, 64);
  RunConfig cfg = gossip_config();
  cfg.rounds = 10;
  const auto ring = appfl::core::run_decentralized(
      cfg, split, appfl::core::ring_topology(6));
  const auto complete = appfl::core::run_decentralized(
      cfg, split, appfl::core::complete_topology(6));
  EXPECT_GT(ring.final_accuracy, 0.5);
  EXPECT_GT(complete.final_accuracy, 0.5);
  // Denser mixing can only help consensus.
  EXPECT_LE(complete.round_disagreement.back(),
            ring.round_disagreement.back() + 1e-6);
}

TEST(Gossip, TrafficScalesWithEdges) {
  const auto split = split_of(6, 16);
  RunConfig cfg = gossip_config();
  cfg.rounds = 2;
  const auto ring = appfl::core::run_decentralized(
      cfg, split, appfl::core::ring_topology(6));
  const auto complete = appfl::core::run_decentralized(
      cfg, split, appfl::core::complete_topology(6));
  // Bytes ∝ directed edges per round: ring 12, complete 30.
  EXPECT_NEAR(static_cast<double>(complete.total_bytes) / ring.total_bytes,
              30.0 / 12.0, 1e-9);
}

TEST(Gossip, SupportsDifferentialPrivacy) {
  const auto split = split_of(4, 32);
  RunConfig cfg = gossip_config();
  cfg.clip = 1.0F;
  cfg.epsilon = 5.0;
  const auto result = appfl::core::run_decentralized(
      cfg, split, appfl::core::complete_topology(4));
  EXPECT_EQ(result.round_accuracy.size(), cfg.rounds);
  // Perturbed but functional.
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(Gossip, RejectsMismatchedTopology) {
  const auto split = split_of(4, 16);
  EXPECT_THROW(appfl::core::run_decentralized(
                   gossip_config(), split, appfl::core::ring_topology(5)),
               appfl::Error);
}

TEST(Gossip, DeterministicGivenSeed) {
  const auto split = split_of(4, 24);
  const auto topo = appfl::core::random_topology(4, 3.0, 9);
  const auto a = appfl::core::run_decentralized(gossip_config(), split, topo);
  const auto b = appfl::core::run_decentralized(gossip_config(), split, topo);
  ASSERT_EQ(a.round_accuracy.size(), b.round_accuracy.size());
  for (std::size_t i = 0; i < a.round_accuracy.size(); ++i) {
    EXPECT_EQ(a.round_accuracy[i], b.round_accuracy[i]);
    EXPECT_EQ(a.round_disagreement[i], b.round_disagreement[i]);
  }
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(Gossip, PureGossipConvergesToInitialMean) {
  // With a learning-free configuration check the mixing math alone: if all
  // nodes skip training (lr ≈ 0), iterates contract to the initial mean —
  // and since all nodes start identical, disagreement stays ~0.
  const auto split = split_of(4, 16);
  RunConfig cfg = gossip_config();
  cfg.lr = 1e-12F;
  cfg.rounds = 3;
  const auto result = appfl::core::run_decentralized(
      cfg, split, appfl::core::ring_topology(4));
  for (double d : result.round_disagreement) EXPECT_LT(d, 1e-3);
}

}  // namespace

// Adaptive penalty ρ^t extension: the residual-balancing rule, its
// propagation through the wire, and dual-replica consistency under changing ρ.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/adaptive.hpp"
#include "core/iiadmm.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::RunConfig;

RunConfig adaptive_config() {
  RunConfig cfg;
  cfg.algorithm = Algorithm::kIIAdmm;
  cfg.model = appfl::core::ModelKind::kMlp;
  cfg.mlp_hidden = 16;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.rho = 2.0F;
  cfg.zeta = 1.0F;
  cfg.clip = 0.0F;
  cfg.epsilon = std::numeric_limits<double>::infinity();
  cfg.adaptive_rho = true;
  cfg.seed = 31;
  cfg.validate_every_round = false;
  return cfg;
}

appfl::data::FederatedSplit small_split() {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 48;
  spec.test_size = 64;
  spec.seed = 31;
  return appfl::data::mnist_like(spec);
}

TEST(AdaptRho, GrowsWhenPrimalResidualDominates) {
  RunConfig cfg = adaptive_config();
  EXPECT_FLOAT_EQ(appfl::core::adapt_rho(2.0F, 100.0, 1.0, cfg), 4.0F);
}

TEST(AdaptRho, ShrinksWhenDualResidualDominates) {
  RunConfig cfg = adaptive_config();
  EXPECT_FLOAT_EQ(appfl::core::adapt_rho(2.0F, 1.0, 100.0, cfg), 1.0F);
}

TEST(AdaptRho, HoldsWhenBalanced) {
  RunConfig cfg = adaptive_config();
  EXPECT_FLOAT_EQ(appfl::core::adapt_rho(2.0F, 5.0, 5.0, cfg), 2.0F);
}

TEST(AdaptRho, ClampsToConfiguredRange) {
  RunConfig cfg = adaptive_config();
  cfg.rho_min = 1.0F;
  cfg.rho_max = 3.0F;
  EXPECT_FLOAT_EQ(appfl::core::adapt_rho(2.0F, 100.0, 0.0, cfg), 3.0F);
  EXPECT_FLOAT_EQ(appfl::core::adapt_rho(1.5F, 0.0, 100.0, cfg), 1.0F);
}

TEST(AdaptRho, ConfigValidationGuards) {
  RunConfig cfg = adaptive_config();
  cfg.algorithm = Algorithm::kFedAvg;
  EXPECT_THROW(cfg.validate(), appfl::Error);  // IADMM family only

  cfg = adaptive_config();
  cfg.epsilon = 5.0;  // DP sensitivity would drift with rho
  cfg.clip = 1.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = adaptive_config();
  cfg.adapt_tau = 1.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = adaptive_config();
  cfg.rho = 1000.0F;  // outside [rho_min, rho_max]
  EXPECT_THROW(cfg.validate(), appfl::Error);
}

TEST(AdaptiveRun, RhoEvolvesAndIsRecordedPerRound) {
  // An over-damped initial rho makes the dual residual dominate, so the
  // balancing rule must shrink rho within a few rounds.
  RunConfig cfg = adaptive_config();
  cfg.rho = 30.0F;
  const auto result = appfl::core::run_federated(cfg, small_split());
  // Every round carries the rho in force; it starts at the configured value.
  EXPECT_NEAR(result.rounds.front().rho, 30.0, 1e-6);
  bool changed = false;
  for (const auto& r : result.rounds) {
    EXPECT_GT(r.rho, 0.0);
    if (std::abs(r.rho - 30.0) > 1e-9) changed = true;
  }
  EXPECT_TRUE(changed) << "rho never adapted over the run";
}

TEST(AdaptiveRun, FixedRhoRunsReportConstantRho) {
  RunConfig cfg = adaptive_config();
  cfg.adaptive_rho = false;
  const auto result = appfl::core::run_federated(cfg, small_split());
  for (const auto& r : result.rounds) EXPECT_NEAR(r.rho, 2.0, 1e-6);
}

TEST(AdaptiveRun, DualReplicasStayBitIdenticalAcrossRhoChanges) {
  // The critical invariant: adaptation must not desynchronize the
  // server/client dual replicas (both sides must use the broadcast rho).
  const RunConfig cfg = adaptive_config();
  const auto split = small_split();
  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(std::make_unique<appfl::core::IIAdmmClient>(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  appfl::core::IIAdmmServer server(cfg, std::move(model), split.test,
                                   clients.size());
  appfl::core::run_federated(cfg, server, clients);

  for (std::size_t p = 0; p < clients.size(); ++p) {
    const auto& cd =
        static_cast<appfl::core::IIAdmmClient&>(*clients[p]).dual();
    const auto& sd = server.dual(static_cast<std::uint32_t>(p + 1));
    ASSERT_EQ(cd.size(), sd.size());
    for (std::size_t i = 0; i < cd.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(cd[i]),
                std::bit_cast<std::uint32_t>(sd[i]))
          << "client " << p + 1 << " coord " << i;
    }
  }
}

/// Forwards every call to the algorithm's own server. Before forwarding a
/// round's absorb() it predicts the next ρ from the round's messages and
/// the broadcast w: for each sender in sender order, ‖w − z_p‖ and
/// ρ‖z_p − z_p^prev‖ recomputed serially in double (z_p^prev is the
/// sender's previous message, or z¹ before it has one), then adapt_rho.
/// After forwarding it checks the server's current_rho() bit for bit.
class ResidualOracleServer : public appfl::core::BaseServer {
 public:
  ResidualOracleServer(const RunConfig& config,
                       std::unique_ptr<appfl::nn::Module> model,
                       appfl::data::TensorDataset test,
                       std::size_t num_clients,
                       std::unique_ptr<appfl::core::BaseServer> inner)
      : BaseServer(config, std::move(model), std::move(test), num_clients),
        inner_(std::move(inner)),
        previous_(num_clients, inner_->initial_parameters()) {}

  std::vector<float> compute_global(std::uint32_t round) override {
    return inner_->compute_global(round);
  }
  void update(const std::vector<appfl::comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override {
    inner_->update(locals, global, round);
  }
  bool absorb(const appfl::comm::GatherBatch& batch,
              std::span<const float> global, std::uint32_t round) override {
    const float rho = inner_->current_rho();
    double primal_residual = 0.0;
    double dual_residual = 0.0;
    for (const appfl::comm::Message& m : batch.take_messages()) {
      std::vector<float>& prev = previous_.at(m.sender - 1);
      EXPECT_EQ(m.primal.size(), global.size());
      double r2 = 0.0, s2 = 0.0;
      for (std::size_t i = 0; i < m.primal.size(); ++i) {
        const double r = static_cast<double>(global[i]) - m.primal[i];
        const double s = static_cast<double>(m.primal[i]) - prev[i];
        r2 += r * r;
        s2 += s * s;
      }
      primal_residual += std::sqrt(r2);
      dual_residual += static_cast<double>(rho) * std::sqrt(s2);
      prev = m.primal;
    }
    const float expected =
        batch.empty() ? rho
                      : appfl::core::adapt_rho(rho, primal_residual,
                                               dual_residual, config());
    const bool absorbed = inner_->absorb(batch, global, round);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(inner_->current_rho()),
              std::bit_cast<std::uint32_t>(expected))
        << "round " << round << ": server " << inner_->current_rho()
        << ", oracle " << expected;
    rhos.push_back(inner_->current_rho());
    return absorbed;
  }
  float current_rho() const override { return inner_->current_rho(); }
  const appfl::core::BaseServer& inner() const { return *inner_; }

  std::vector<float> rhos;  // ρ after each round's absorption

 private:
  std::unique_ptr<appfl::core::BaseServer> inner_;
  std::vector<std::vector<float>> previous_;  // z_p^prev per client
};

TEST(AdaptiveRun, ResidualPrePassMatchesASerialDoubleOracle) {
  const auto split = small_split();
  for (const Algorithm alg : {Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    for (const double fraction : {1.0, 0.5}) {
      SCOPED_TRACE(appfl::core::to_string(alg) + " fraction " +
                   std::to_string(fraction));
      RunConfig cfg = adaptive_config();
      cfg.algorithm = alg;
      cfg.client_fraction = fraction;
      cfg.rho = 30.0F;
      cfg.rounds = 8;
      auto model = appfl::core::build_model(cfg, split.test);
      std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
      for (std::size_t p = 0; p < split.clients.size(); ++p) {
        clients.push_back(appfl::core::build_client(
            static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
      }
      const std::size_t n = clients.size();
      auto validation_model = model->clone();
      ResidualOracleServer server(
          cfg, std::move(validation_model), split.test, n,
          appfl::core::build_server(cfg, std::move(model), split.test, n));
      const auto result = appfl::core::run_federated(cfg, server, clients);
      ASSERT_EQ(server.rhos.size(), cfg.rounds);
      std::size_t changes = 0;
      float before = cfg.rho;
      for (std::size_t r = 0; r < server.rhos.size(); ++r) {
        // The ρ each round broadcast is the one the previous round left.
        EXPECT_EQ(result.rounds[r].rho, static_cast<double>(before));
        if (server.rhos[r] != before) ++changes;
        before = server.rhos[r];
      }
      EXPECT_GE(changes, 2U) << "rho changed too rarely to test adaptation";
      // The server's dual step ran at the ρ each client trained with, so
      // the dual replicas still agree bit for bit.
      const auto server_duals = server.inner().export_state().dual;
      ASSERT_EQ(server_duals.size(), n);
      for (std::size_t p = 0; p < n; ++p) {
        const auto client_dual = clients[p]->export_state().dual;
        ASSERT_EQ(client_dual.size(), server_duals[p].size());
        EXPECT_EQ(std::memcmp(client_dual.data(), server_duals[p].data(),
                              client_dual.size() * sizeof(float)),
                  0)
            << "client " << p + 1;
      }
    }
  }
}

TEST(AdaptiveRun, RecoversFromBadInitialRho) {
  // Start with an absurdly large rho (over-damped local steps). Adaptive
  // should end with a materially smaller rho than it started with.
  RunConfig cfg = adaptive_config();
  cfg.rho = 50.0F;
  cfg.rounds = 8;
  const auto adaptive = appfl::core::run_federated(cfg, small_split());
  EXPECT_LT(adaptive.rounds.back().rho, 50.0);
}

}  // namespace

// DP mode extension: output perturbation (§III-B, the paper's scheme) vs
// gradient perturbation (DP-SGD style, the "more advanced" direction the
// paper lists as future work).
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <limits>

#include "core/runner.hpp"
#include "data/synth.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::DpMode;
using appfl::core::RunConfig;

constexpr double kInf = std::numeric_limits<double>::infinity();

appfl::data::FederatedSplit split_of() {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 64;
  spec.test_size = 128;
  spec.seed = 61;
  return appfl::data::mnist_like(spec);
}

RunConfig config_of(Algorithm alg, DpMode mode, double eps) {
  RunConfig cfg;
  cfg.algorithm = alg;
  cfg.model = appfl::core::ModelKind::kMlp;
  cfg.mlp_hidden = 16;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.batch_size = 32;
  cfg.rho = 2.0F;
  cfg.zeta = 2.0F;
  cfg.clip = 1.0F;
  cfg.epsilon = eps;
  cfg.dp_mode = mode;
  cfg.seed = 61;
  cfg.validate_every_round = false;
  return cfg;
}

class DpModeTest : public testing::TestWithParam<Algorithm> {};

TEST_P(DpModeTest, GradientModeChangesTheTrajectory) {
  const auto split = split_of();
  const auto out = appfl::core::run_federated(
      config_of(GetParam(), DpMode::kOutput, 5.0), split);
  const auto grad = appfl::core::run_federated(
      config_of(GetParam(), DpMode::kGradient, 5.0), split);
  // Different noise injection points ⇒ different dynamics.
  EXPECT_NE(out.rounds.back().train_loss, grad.rounds.back().train_loss);
}

TEST_P(DpModeTest, GradientModeLearnsAtGenerousBudget) {
  const auto split = split_of();
  auto cfg = config_of(GetParam(), DpMode::kGradient, 200.0);
  const auto result = appfl::core::run_federated(cfg, split);
  EXPECT_GT(result.final_accuracy, 0.5) << appfl::core::to_string(GetParam());
}

TEST_P(DpModeTest, GradientModeIsDeterministic) {
  const auto split = split_of();
  const auto cfg = config_of(GetParam(), DpMode::kGradient, 5.0);
  const auto a = appfl::core::run_federated(cfg, split);
  const auto b = appfl::core::run_federated(cfg, split);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.rounds.back().train_loss, b.rounds.back().train_loss);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DpModeTest,
                         testing::Values(Algorithm::kFedAvg,
                                         Algorithm::kIIAdmm,
                                         Algorithm::kIceAdmm),
                         [](const testing::TestParamInfo<Algorithm>& i) {
                           return appfl::core::to_string(i.param);
                         });

TEST(DpMode, GradientModeWithInfiniteEpsilonAddsNoNoise) {
  const auto split = split_of();
  const auto clean = appfl::core::run_federated(
      config_of(Algorithm::kFedAvg, DpMode::kOutput, kInf), split);
  const auto grad_inf = appfl::core::run_federated(
      config_of(Algorithm::kFedAvg, DpMode::kGradient, kInf), split);
  EXPECT_EQ(clean.final_accuracy, grad_inf.final_accuracy);
  for (std::size_t i = 0; i < clean.rounds.size(); ++i) {
    EXPECT_EQ(clean.rounds[i].train_loss, grad_inf.rounds[i].train_loss);
  }
}

TEST(DpMode, HarsherBudgetHurtsMoreInGradientMode) {
  const auto split = split_of();
  const auto generous = appfl::core::run_federated(
      config_of(Algorithm::kFedAvg, DpMode::kGradient, 500.0), split);
  const auto harsh = appfl::core::run_federated(
      config_of(Algorithm::kFedAvg, DpMode::kGradient, 1.0), split);
  EXPECT_GT(generous.final_accuracy, harsh.final_accuracy);
}

TEST(DpMode, IIAdmmDualConsistencyHoldsInGradientMode) {
  // Per-step gradient noise changes z, but both replicas still see the same
  // final z, so the duals must stay identical.
  const auto split = split_of();
  RunConfig cfg = config_of(Algorithm::kIIAdmm, DpMode::kGradient, 10.0);

  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(appfl::core::build_client(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  auto server = appfl::core::build_server(cfg, std::move(model), split.test,
                                          clients.size());
  EXPECT_NO_THROW(appfl::core::run_federated(cfg, *server, clients));
}

}  // namespace

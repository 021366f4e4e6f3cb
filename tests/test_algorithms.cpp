// FL algorithm correctness: IIADMM Algorithm-1 semantics (dual-update
// duplication), the FedAvg⊂IADMM special-case claim, the §III-A traffic
// claim, convergence on learnable data, and determinism.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "comm/communicator.hpp"
#include "core/fedavg.hpp"
#include "core/iceadmm.hpp"
#include "core/iiadmm.hpp"
#include "core/runner.hpp"
#include "core/server_opt.hpp"
#include "data/synth.hpp"
#include "tensor/ops.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::ModelKind;
using appfl::core::RunConfig;
using appfl::data::FederatedSplit;

constexpr double kInf = std::numeric_limits<double>::infinity();

FederatedSplit easy_split(std::uint64_t seed = 1, std::size_t per_client = 96,
                          double noise = 0.6) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = per_client;
  spec.test_size = 128;
  spec.noise = noise;
  spec.seed = seed;
  return appfl::data::mnist_like(spec);
}

RunConfig base_config(Algorithm alg) {
  RunConfig cfg;
  cfg.algorithm = alg;
  cfg.model = ModelKind::kMlp;
  cfg.mlp_hidden = 16;
  cfg.rounds = 8;
  cfg.local_steps = 2;
  cfg.batch_size = 32;
  cfg.lr = 0.1F;
  cfg.momentum = 0.9F;
  cfg.rho = 2.0F;
  cfg.zeta = 2.0F;
  cfg.clip = 5.0F;
  cfg.epsilon = kInf;
  cfg.seed = 3;
  return cfg;
}

// -- Dual-update duplication (the IIADMM communication trick) -----------------

class IIAdmmDualTest : public testing::TestWithParam<double> {};

TEST_P(IIAdmmDualTest, ServerAndClientDualsStayBitIdentical) {
  // The paper's §III-A argument: because (z¹, λ¹) is shared once and both
  // sides apply identical arithmetic each round, the server's dual replica
  // equals the client's — even under DP (the perturbed primal is what both
  // sides consume). We assert bit-exact equality over several rounds.
  const double epsilon = GetParam();
  RunConfig cfg = base_config(Algorithm::kIIAdmm);
  cfg.rounds = 5;
  cfg.epsilon = epsilon;
  cfg.clip = 1.0F;
  const FederatedSplit split = easy_split();

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
    const auto& client_dual =
        static_cast<appfl::core::IIAdmmClient&>(*clients[p]).dual();
    const auto& server_dual =
        server.dual(static_cast<std::uint32_t>(p + 1));
    ASSERT_EQ(client_dual.size(), server_dual.size());
    std::size_t diff = 0;
    for (std::size_t i = 0; i < client_dual.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(client_dual[i]) !=
          std::bit_cast<std::uint32_t>(server_dual[i])) {
        ++diff;
      }
    }
    EXPECT_EQ(diff, 0U) << "client " << p + 1 << " (epsilon=" << epsilon
                        << "): " << diff << " coords diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutDp, IIAdmmDualTest,
                         testing::Values(kInf, 5.0),
                         [](const testing::TestParamInfo<double>& i) {
                           return std::isinf(i.param) ? "no_dp" : "eps5";
                         });

// -- FedAvg as an IADMM special case (§III-A) -----------------------------------

TEST(SpecialCase, IceAdmmWithLambda0Zeta0RhoInvEtaMatchesOneSgdStep) {
  // With λ = 0, ζ = 0, ρ = 1/η the ICEADMM local solve (4) is
  // z = w − η·g(w): one plain SGD step. Compare one ICEADMM round against
  // one FedAvg round configured identically (momentum 0, L=1, full batch).
  const float eta = 0.05F;
  const FederatedSplit split = easy_split(2, 48);

  RunConfig ice = base_config(Algorithm::kIceAdmm);
  ice.local_steps = 1;
  ice.rho = 1.0F / eta;
  ice.zeta = 0.0F;
  ice.clip = 0.0F;

  RunConfig fed = base_config(Algorithm::kFedAvg);
  fed.local_steps = 1;
  fed.lr = eta;
  fed.momentum = 0.0F;
  fed.batch_size = 100000;  // one full batch
  fed.clip = 0.0F;
  fed.weighted_aggregation = false;

  auto proto_ice = appfl::core::build_model(ice, split.test);
  auto proto_fed = appfl::core::build_model(fed, split.test);
  ASSERT_EQ(proto_ice->flat_parameters(), proto_fed->flat_parameters());
  const std::vector<float> w1 = proto_ice->flat_parameters();

  appfl::core::IceAdmmClient ice_client(1, ice, *proto_ice, split.clients[0]);
  appfl::core::FedAvgClient fed_client(1, fed, *proto_fed, split.clients[0]);

  const auto ice_update = ice_client.update(w1, 1);
  const auto fed_update = fed_client.update(w1, 1);
  ASSERT_EQ(ice_update.primal.size(), fed_update.primal.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ice_update.primal.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(ice_update.primal[i]) -
                                 fed_update.primal[i]));
  }
  EXPECT_LT(max_diff, 5e-5);
}

TEST(SpecialCase, IIAdmmServerReducesToAveragingWhenDualsAreZero) {
  // Line 3 of Algorithm 1 with λ = 0 is exactly the FedAvg plain average.
  RunConfig cfg = base_config(Algorithm::kIIAdmm);
  const FederatedSplit split = easy_split(3, 32);
  auto model = appfl::core::build_model(cfg, split.test);
  const std::vector<float> init = model->flat_parameters();
  appfl::core::IIAdmmServer server(cfg, std::move(model), split.test, 4);
  const auto w = server.compute_global(1);
  // All z_p = init and λ_p = 0 at construction ⇒ w == init (up to float sum).
  for (std::size_t i = 0; i < w.size(); i += 97) {
    EXPECT_NEAR(w[i], init[i], 1e-5F);
  }
}

// -- §III-A traffic claim ---------------------------------------------------------

TEST(CommVolume, IceAdmmUploadsTwiceWhatIIAdmmDoes) {
  const FederatedSplit split = easy_split(4, 32);
  auto run_traffic = [&](Algorithm alg) {
    RunConfig cfg = base_config(alg);
    cfg.rounds = 3;
    cfg.validate_every_round = false;
    return appfl::core::run_federated(cfg, split).traffic;
  };
  const auto ice = run_traffic(Algorithm::kIceAdmm);
  const auto iia = run_traffic(Algorithm::kIIAdmm);
  const auto fed = run_traffic(Algorithm::kFedAvg);

  const double ratio = static_cast<double>(ice.bytes_up) /
                       static_cast<double>(iia.bytes_up);
  EXPECT_NEAR(ratio, 2.0, 0.02);
  // IIADMM's uplink equals FedAvg's: primal-only messages.
  EXPECT_EQ(iia.bytes_up, fed.bytes_up);
  // Downlink (global broadcast) identical for all three.
  EXPECT_EQ(ice.bytes_down, iia.bytes_down);
}

// -- Convergence on learnable data -----------------------------------------------

class ConvergenceTest : public testing::TestWithParam<Algorithm> {};

TEST_P(ConvergenceTest, BeatsChanceByAWideMarginWithoutDp) {
  RunConfig cfg = base_config(GetParam());
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, easy_split());
  // 10 classes ⇒ chance = 0.10.
  EXPECT_GT(result.final_accuracy, 0.55)
      << appfl::core::to_string(GetParam());
  // Training loss should fall substantially from log(10) ≈ 2.3.
  EXPECT_LT(result.rounds.back().train_loss,
            result.rounds.front().train_loss * 0.8);
}

INSTANTIATE_TEST_SUITE_P(All, ConvergenceTest,
                         testing::Values(Algorithm::kFedAvg,
                                         Algorithm::kIceAdmm,
                                         Algorithm::kIIAdmm),
                         [](const testing::TestParamInfo<Algorithm>& i) {
                           return appfl::core::to_string(i.param);
                         });

TEST(PrivacyTradeoff, HarshEpsilonDegradesAccuracy) {
  // Fig 2's qualitative content: ε↓ ⇒ accuracy↓. Compare ε = ∞ vs a harsh
  // ε on IIADMM (small ρ+ζ makes the sensitivity, hence the noise, large).
  RunConfig cfg = base_config(Algorithm::kIIAdmm);
  cfg.clip = 1.0F;
  cfg.rho = 1.0F;
  cfg.zeta = 1.0F;
  cfg.validate_every_round = false;
  const FederatedSplit split = easy_split();

  const auto clean = appfl::core::run_federated(cfg, split);
  cfg.epsilon = 0.5;  // very strong privacy ⇒ heavy noise
  const auto noisy = appfl::core::run_federated(cfg, split);
  EXPECT_GT(clean.final_accuracy, noisy.final_accuracy + 0.1);
}

TEST(Determinism, IdenticalConfigGivesIdenticalRun) {
  RunConfig cfg = base_config(Algorithm::kIIAdmm);
  cfg.rounds = 4;
  cfg.epsilon = 10.0;
  const FederatedSplit split = easy_split();
  const auto a = appfl::core::run_federated(cfg, split);
  const auto b = appfl::core::run_federated(cfg, split);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.traffic.bytes_up, b.traffic.bytes_up);
}

TEST(Determinism, DifferentSeedsGiveDifferentTrajectories) {
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  cfg.rounds = 2;
  const auto a = appfl::core::run_federated(cfg, easy_split());
  cfg.seed = 99;
  const auto b = appfl::core::run_federated(cfg, easy_split());
  EXPECT_NE(a.rounds[1].train_loss, b.rounds[1].train_loss);
}

TEST(IIAdmm, ConsensusResidualShrinksOnConvexProblem) {
  // On the convex logistic instance, ADMM consensus ‖w − z_p‖ should shrink
  // markedly from the first to the last round.
  RunConfig cfg = base_config(Algorithm::kIIAdmm);
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 12;
  cfg.rho = 4.0F;
  cfg.zeta = 4.0F;
  cfg.validate_every_round = false;
  const FederatedSplit split = easy_split(7, 64);

  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(std::make_unique<appfl::core::IIAdmmClient>(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  appfl::core::IIAdmmServer server(cfg, std::move(model), split.test,
                                   clients.size());

  double first_residual = -1.0, last_residual = -1.0;
  for (std::uint32_t round = 1; round <= cfg.rounds; ++round) {
    const auto w = server.compute_global(round);
    std::vector<appfl::comm::Message> locals;
    double residual = 0.0;
    for (auto& c : clients) {
      auto msg = c->update(w, round);
      std::vector<float> diff = msg.primal;
      for (std::size_t i = 0; i < diff.size(); ++i) diff[i] -= w[i];
      residual += appfl::tensor::norm2(diff);
      locals.push_back(std::move(msg));
    }
    server.update(locals, w, round);
    if (round == 1) first_residual = residual;
    if (round == cfg.rounds) last_residual = residual;
  }
  EXPECT_LT(last_residual, 0.5 * first_residual);
}

TEST(FedAvg, RejectsUpdatesCarryingDuals) {
  RunConfig cfg = base_config(Algorithm::kFedAvg);
  const FederatedSplit split = easy_split(5, 16);
  auto model = appfl::core::build_model(cfg, split.test);
  appfl::core::FedAvgServer server(cfg, std::move(model), split.test, 1);
  appfl::comm::Message bad;
  bad.kind = appfl::comm::MessageKind::kLocalUpdate;
  bad.sender = 1;
  bad.round = 1;
  bad.primal.assign(server.num_parameters(), 0.0F);
  bad.dual.assign(server.num_parameters(), 0.0F);
  std::vector<float> w(server.num_parameters(), 0.0F);
  EXPECT_THROW(server.update({bad}, w, 1), appfl::Error);
}

/// Expects `call` to throw an appfl::Error whose message contains `needle`.
template <typename Call>
void expect_error_naming(const Call& call, const std::string& needle) {
  try {
    call();
    ADD_FAILURE() << "no error thrown";
  } catch (const appfl::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Servers, WrongSizePayloadThrowsThroughEitherEntryNamingTheSender) {
  // Every built-in server runs one aggregation body behind update() and
  // absorb(), so a payload of the wrong size throws at absorption whichever
  // entry it came in by, names its sender, and leaves the aggregate as it
  // was.
  const FederatedSplit split = easy_split(5, 16);
  for (const bool fedopt : {false, true}) {
    for (const Algorithm alg : {Algorithm::kFedAvg, Algorithm::kIceAdmm,
                                Algorithm::kIIAdmm}) {
      if (fedopt && alg != Algorithm::kFedAvg) continue;
      SCOPED_TRACE(fedopt ? "fedopt" : appfl::core::to_string(alg));
      const RunConfig cfg = base_config(alg);
      auto model = appfl::core::build_model(cfg, split.test);
      std::unique_ptr<appfl::core::BaseServer> server =
          fedopt ? std::make_unique<appfl::core::FedOptServer>(
                       cfg, appfl::core::ServerOptConfig{}, std::move(model),
                       split.test, 2)
                 : appfl::core::build_server(cfg, std::move(model),
                                             split.test, 2);
      const std::vector<float> w = server->compute_global(1);
      appfl::comm::Message bad;
      bad.kind = appfl::comm::MessageKind::kLocalUpdate;
      bad.sender = 2;
      bad.round = 1;
      bad.sample_count = 16;
      bad.primal.assign(w.size() + 1, 0.5F);
      if (alg == Algorithm::kIceAdmm) bad.dual.assign(w.size() + 1, 0.0F);
      expect_error_naming([&] { server->update({bad}, w, 1); }, "client 2");

      appfl::comm::Communicator comm(appfl::comm::Protocol::kMpi, 2, 1);
      ASSERT_TRUE(comm.send_update(2, bad));
      const appfl::comm::GatherBatch batch = comm.gather_batch(1, 1);
      ASSERT_EQ(batch.size(), 1U);
      expect_error_naming([&] { server->absorb(batch, w, 1); }, "client 2");
      const std::vector<float> after = server->compute_global(2);
      ASSERT_EQ(after.size(), w.size());
      EXPECT_EQ(std::memcmp(after.data(), w.data(), w.size() * sizeof(float)),
                0);
    }
  }
}

}  // namespace

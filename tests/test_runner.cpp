// FederatedRunner: orchestration, metrics, config validation, factories.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <limits>

#include "core/runner.hpp"
#include "data/synth.hpp"
#include "tensor/ops.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::ModelKind;
using appfl::core::RunConfig;

appfl::data::FederatedSplit small_split(std::size_t per_client = 24) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = per_client;
  spec.test_size = 32;
  spec.seed = 9;
  return appfl::data::mnist_like(spec);
}

RunConfig quick_config() {
  RunConfig cfg;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 16;
  cfg.seed = 5;
  return cfg;
}

TEST(Runner, ProducesOneMetricsRowPerRound) {
  const auto result = appfl::core::run_federated(quick_config(), small_split());
  ASSERT_EQ(result.rounds.size(), 3U);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].round, i + 1);
    EXPECT_GE(result.rounds[i].test_accuracy, 0.0);
    EXPECT_LE(result.rounds[i].test_accuracy, 1.0);
    EXPECT_GT(result.rounds[i].train_loss, 0.0);
    EXPECT_GT(result.rounds[i].broadcast_s, 0.0);
    EXPECT_GT(result.rounds[i].gather_s, 0.0);
  }
  EXPECT_GT(result.model_parameters, 0U);
}

TEST(Runner, SkipsValidationWhenDisabled) {
  RunConfig cfg = quick_config();
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, small_split());
  EXPECT_EQ(result.rounds[0].test_accuracy, -1.0);
  EXPECT_EQ(result.rounds[1].test_accuracy, -1.0);
  // The last round always validates.
  EXPECT_GE(result.rounds[2].test_accuracy, 0.0);
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(Runner, GrpcProtocolRecordsPerClientTimes) {
  RunConfig cfg = quick_config();
  cfg.protocol = appfl::comm::Protocol::kGrpc;
  const auto result = appfl::core::run_federated(cfg, small_split());
  ASSERT_FALSE(result.comm_rounds.empty());
  EXPECT_EQ(result.comm_rounds[0].client_transfer_s.size(), 4U);
}

TEST(Runner, WeightedAggregationMattersForUnevenShards) {
  // Two clients with very different sample counts: the weighted average must
  // differ from the plain average after one round.
  appfl::data::FederatedSplit split;
  split.name = "uneven";
  split.clients.push_back(
      appfl::data::generate_samples(1, 8, 8, 2, 64, 0.5, 31));
  split.clients.push_back(
      appfl::data::generate_samples(1, 8, 8, 2, 4, 0.5, 32));
  split.test = appfl::data::generate_samples(1, 8, 8, 2, 32, 0.5, 33);

  RunConfig cfg = quick_config();
  cfg.rounds = 2;
  const auto weighted = appfl::core::run_federated(cfg, split);
  cfg.weighted_aggregation = false;
  const auto plain = appfl::core::run_federated(cfg, split);
  EXPECT_NE(weighted.rounds[1].train_loss, plain.rounds[1].train_loss);
}

TEST(Runner, ManyClientsRunThroughTheThreadPool) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = 16;
  spec.mean_samples_per_writer = 10;
  spec.test_size = 16;
  const auto split = appfl::data::femnist_like(spec);
  RunConfig cfg = quick_config();
  cfg.rounds = 2;
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, split);
  EXPECT_EQ(result.traffic.messages_up, 2U * 16U);
}

TEST(BuildModel, AllKindsMatchDataShape) {
  const auto split = small_split(8);
  for (ModelKind kind :
       {ModelKind::kPaperCnn, ModelKind::kMlp, ModelKind::kLogistic}) {
    RunConfig cfg = quick_config();
    cfg.model = kind;
    auto model = appfl::core::build_model(cfg, split.test);
    EXPECT_GT(model->num_parameters(), 0U) << static_cast<int>(kind);
  }
}

TEST(BuildFactories, ProduceMatchingAlgorithmPairs) {
  const auto split = small_split(8);
  for (Algorithm alg :
       {Algorithm::kFedAvg, Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    RunConfig cfg = quick_config();
    cfg.algorithm = alg;
    auto model = appfl::core::build_model(cfg, split.test);
    auto client = appfl::core::build_client(1, cfg, *model, split.clients[0]);
    auto server = appfl::core::build_server(cfg, std::move(model), split.test,
                                            1);
    EXPECT_EQ(client->num_parameters(), server->num_parameters());
  }
}

TEST(Config, ValidationCatchesBadSettings) {
  RunConfig cfg = quick_config();
  cfg.rounds = 0;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.epsilon = 5.0;
  cfg.clip = 0.0F;  // finite ε without clipping is unsound
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.algorithm = Algorithm::kIIAdmm;
  cfg.rho = 0.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.momentum = 1.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);
}

TEST(Config, SensitivityDependsOnAlgorithm) {
  RunConfig cfg = quick_config();
  cfg.clip = 1.0F;
  cfg.lr = 0.1F;
  cfg.algorithm = Algorithm::kFedAvg;
  EXPECT_NEAR(cfg.sensitivity(), 0.2, 1e-6);
  cfg.algorithm = Algorithm::kIIAdmm;
  cfg.rho = 5.0F;
  cfg.zeta = 5.0F;
  EXPECT_NEAR(cfg.sensitivity(), 0.2, 1e-6);
  cfg.zeta = 15.0F;
  EXPECT_NEAR(cfg.sensitivity(), 0.1, 1e-6);
}

TEST(Runner, TrafficScalesWithModelAndClientsAndRounds) {
  RunConfig cfg = quick_config();
  cfg.validate_every_round = false;
  const auto split = small_split(8);
  const auto r1 = appfl::core::run_federated(cfg, split);
  cfg.rounds = 6;
  const auto r2 = appfl::core::run_federated(cfg, split);
  EXPECT_NEAR(static_cast<double>(r2.traffic.bytes_up) / r1.traffic.bytes_up,
              2.0, 0.01);
}

// ---------------------------------------------------- validation oracle ----

/// Forwards every call to the algorithm's own server and records each w it
/// hands out; validation runs on this object's model and test set.
class RecordingServer : public appfl::core::BaseServer {
 public:
  RecordingServer(const RunConfig& config,
                  std::unique_ptr<appfl::nn::Module> model,
                  appfl::data::TensorDataset test, std::size_t num_clients,
                  std::unique_ptr<appfl::core::BaseServer> inner)
      : BaseServer(config, std::move(model), std::move(test), num_clients),
        inner_(std::move(inner)) {}

  std::vector<float> compute_global(std::uint32_t round) override {
    ws.push_back(inner_->compute_global(round));
    return ws.back();
  }
  void update(const std::vector<appfl::comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override {
    inner_->update(locals, global, round);
  }
  bool absorb(const appfl::comm::GatherBatch& batch,
              std::span<const float> global, std::uint32_t round) override {
    return inner_->absorb(batch, global, round);
  }
  float current_rho() const override { return inner_->current_rho(); }

  std::vector<std::vector<float>> ws;

 private:
  std::unique_ptr<appfl::core::BaseServer> inner_;
};

/// The serial validation loop: one fresh clone, in training mode, forwarded
/// over validate_batch batches in test-set order.
double serial_accuracy(const appfl::nn::Module& prototype,
                       std::span<const float> w,
                       const appfl::data::TensorDataset& test,
                       std::size_t batch) {
  auto model = prototype.clone();
  model->set_flat_parameters(w);
  const std::size_t n = test.size();
  std::size_t correct = 0;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t count = std::min(batch, n - start);
    std::vector<std::size_t> idx(count);
    for (std::size_t i = 0; i < count; ++i) idx[i] = start + i;
    const appfl::data::Batch b = test.gather(idx);
    const auto preds = appfl::tensor::argmax_rows(model->forward(b.inputs));
    for (std::size_t i = 0; i < count; ++i) {
      if (preds[i] == b.labels[i]) ++correct;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(n);
}

TEST(RunnerValidation, MatchesTheSerialLoopOnEveryRoundAndTheFinalModel) {
  bool every_round = true;  // alternates over the cases
  // One client or three: the participants share the pool dispatch with the
  // validation tasks either way.
  for (const std::size_t num_clients : {1UL, 3UL}) {
    for (const std::size_t test_size : {1UL, 100UL, 1000UL}) {
      // 1×8×8 images of 4 classes: the paper CNN's conv path at a test's
      // cost.
      appfl::data::FederatedSplit split;
      for (std::uint64_t p = 0; p < num_clients; ++p) {
        split.clients.push_back(
            appfl::data::generate_samples(1, 8, 8, 4, 12, 0.9, 41 + p));
      }
      split.test =
          appfl::data::generate_samples(1, 8, 8, 4, test_size, 0.9, 40);
      for (const std::size_t batch : {1UL, 7UL, 256UL}) {
        every_round = !every_round;
        SCOPED_TRACE("clients=" + std::to_string(num_clients) +
                     " test_size=" + std::to_string(test_size) + " batch=" +
                     std::to_string(batch) +
                     " every_round=" + std::to_string(every_round));
        RunConfig cfg = quick_config();
        cfg.model = ModelKind::kPaperCnn;
        cfg.rounds = 2;
        cfg.validate_batch = batch;
        cfg.validate_every_round = every_round;
        auto model = appfl::core::build_model(cfg, split.test);
        const auto prototype = model->clone();
        std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
        for (std::size_t p = 0; p < split.clients.size(); ++p) {
          clients.push_back(appfl::core::build_client(
              static_cast<std::uint32_t>(p + 1), cfg, *model,
              split.clients[p]));
        }
        auto validation_model = model->clone();
        RecordingServer server(
            cfg, std::move(validation_model), split.test, clients.size(),
            appfl::core::build_server(cfg, std::move(model),
                                      appfl::data::TensorDataset(),
                                      clients.size()));
        const auto result = appfl::core::run_federated(cfg, server, clients);

        ASSERT_EQ(result.rounds.size(), cfg.rounds);
        ASSERT_EQ(server.ws.size(), cfg.rounds + 1);
        EXPECT_EQ(server.validation_tasks(), (test_size + batch - 1) / batch);
        for (std::size_t r = 0; r < cfg.rounds; ++r) {
          if (every_round || r + 1 == cfg.rounds) {
            EXPECT_EQ(result.rounds[r].test_accuracy,
                      serial_accuracy(*prototype, server.ws[r], split.test,
                                      batch))
                << "round " << r + 1;
          } else {
            EXPECT_EQ(result.rounds[r].test_accuracy, -1.0);
          }
        }
        EXPECT_EQ(result.final_accuracy,
                  serial_accuracy(*prototype, server.ws.back(), split.test,
                                  batch));
        EXPECT_EQ(server.validate(server.ws.back()), result.final_accuracy);
      }
    }
  }
}

}  // namespace

// The checkpoint store's atomic write and the evaluation module.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <filesystem>
#include <fstream>

#include "core/checkpoint.hpp"
#include "core/evaluation.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "nn/model_zoo.hpp"

namespace {

namespace fs = std::filesystem;
using appfl::core::CheckpointStore;

// Fresh (pre-removed) temp path, removed again on scope exit.
struct TempPath {
  fs::path path;
  explicit TempPath(const char* name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
  }
  ~TempPath() { fs::remove_all(path); }
};

void write_junk(const fs::path& p) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << "torn";
}

TEST(CheckpointStore, SaveReplacesStaleTempFiles) {
  // A process killed mid-save leaves `<slot>.tmp` behind. The next save
  // into that slot must write through it and rename it away, never load or
  // leave the stale bytes.
  TempPath dir("appfl_store_stale_tmp");
  CheckpointStore store(dir.path.string());
  const std::vector<std::uint8_t> a(32, 0xA1);
  const std::vector<std::uint8_t> b(32, 0xB2);
  const std::vector<std::uint8_t> c(32, 0xC3);
  store.save(a, 1);
  write_junk(dir.path / "slot_a.ckpt.tmp");
  write_junk(dir.path / "slot_b.ckpt.tmp");
  store.save(b, 2);
  store.save(c, 3);
  EXPECT_FALSE(fs::exists(dir.path / "slot_a.ckpt.tmp"));
  EXPECT_FALSE(fs::exists(dir.path / "slot_b.ckpt.tmp"));
  CheckpointStore fresh(dir.path.string());
  const auto loaded = fresh.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 3U);
  EXPECT_EQ(loaded->payload, c);
  EXPECT_EQ(fresh.report().corrupt_quarantined, 0U);
}

TEST(CheckpointStore, UncreatableDirectoryThrows) {
  // A regular file where a parent directory should be: creating the store
  // directory fails even with root privileges.
  TempPath file("appfl_store_not_a_dir");
  write_junk(file.path);
  EXPECT_THROW(CheckpointStore((file.path / "ckpt").string()), appfl::Error);
}

TEST(Evaluation, FinalParametersReproduceFinalAccuracy) {
  // appfl_cli --report evaluates run_federated's final_parameters; they
  // must be the exact model behind final_accuracy.
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 48;
  spec.test_size = 128;
  spec.seed = 51;
  const auto split = appfl::data::mnist_like(spec);
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 4;
  cfg.seed = 51;
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, split);
  auto fresh = appfl::core::build_model(cfg, split.test);
  const auto report =
      appfl::core::evaluate(*fresh, result.final_parameters, split.test);
  EXPECT_EQ(report.accuracy, result.final_accuracy);
}

TEST(Evaluation, PerfectAndWorstCaseAccuracy) {
  // Logistic model forced to produce a fixed argmax: weights 0, bias favors
  // class 1 ⇒ predicts 1 for everything.
  const auto ds = appfl::data::generate_samples(1, 4, 4, 2, 40, 0.5, 53);
  appfl::rng::Rng r(1);
  auto model = appfl::nn::logistic_regression(16, 2, r);
  std::vector<float> params(model->num_parameters(), 0.0F);
  params[params.size() - 1] = 1.0F;  // bias of class 1
  const auto report = appfl::core::evaluate(*model, params, ds);
  // Accuracy equals the fraction of class-1 samples; recall is 0/1 split.
  EXPECT_NEAR(report.per_class_recall[1], 1.0, 1e-12);
  EXPECT_NEAR(report.per_class_recall[0], 0.0, 1e-12);
  std::size_t class1 = 0;
  for (std::size_t y : ds.labels()) class1 += y;
  EXPECT_NEAR(report.accuracy,
              static_cast<double>(class1) / static_cast<double>(ds.size()),
              1e-12);
}

TEST(Evaluation, ConfusionMatrixSumsToSampleCount) {
  const auto ds = appfl::data::generate_samples(1, 8, 8, 3, 60, 0.8, 54);
  appfl::rng::Rng r(2);
  auto model = appfl::nn::logistic_regression(64, 3, r);
  const auto report =
      appfl::core::evaluate(*model, model->flat_parameters(), ds, 17);
  std::size_t total = 0;
  for (const auto& row : report.confusion) {
    for (std::size_t c : row) total += c;
  }
  EXPECT_EQ(total, 60U);
  EXPECT_EQ(report.samples, 60U);
  EXPECT_GT(report.mean_loss, 0.0);
}

TEST(Evaluation, BalancedAccuracySkipsEmptyClasses) {
  appfl::core::EvalReport report;
  report.per_class_recall = {1.0, -1.0, 0.5};
  EXPECT_NEAR(report.balanced_accuracy(), 0.75, 1e-12);
  report.per_class_recall = {-1.0};
  EXPECT_EQ(report.balanced_accuracy(), 0.0);
}

TEST(Validation, MatchesEvaluateAtEveryBatchSizeWithoutTouchingTheModel) {
  // The validation loop every FL loop runs counts the same argmax matches
  // as evaluate's report, batch by batch, but on clones: the model keeps
  // its own parameters.
  const auto ds = appfl::data::generate_samples(1, 6, 6, 4, 100, 0.9, 55);
  appfl::rng::Rng r(4);
  auto model = appfl::nn::mlp(36, 16, 4, r);
  const std::vector<float> own = model->flat_parameters();
  std::vector<float> w = own;
  for (std::size_t i = 0; i < w.size(); i += 3) w[i] *= -1.5F;
  for (std::size_t batch : {1, 7, 100, 256}) {
    const double acc =
        appfl::core::validation_accuracy(*model, w, ds, batch);
    EXPECT_EQ(model->flat_parameters(), own) << batch;
    std::vector<std::size_t> correct(
        appfl::core::validation_tasks(ds, batch));
    EXPECT_EQ(correct.size(), (100 + batch - 1) / batch);
    for (std::size_t t = 0; t < correct.size(); ++t) {
      correct[t] = appfl::core::count_correct(*model, w, ds, batch, t);
    }
    EXPECT_EQ(appfl::core::accuracy(ds, correct), acc) << batch;
    EXPECT_EQ(model->flat_parameters(), own) << batch;
    EXPECT_EQ(appfl::core::evaluate(*model->clone(), w, ds, batch).accuracy,
              acc)
        << batch;
  }
  const appfl::data::TensorDataset empty;
  EXPECT_EQ(appfl::core::validation_tasks(empty, 7), 0U);
  EXPECT_EQ(appfl::core::validation_accuracy(*model, w, empty, 7), 0.0);
}

TEST(Evaluation, EmptyDatasetGivesZeroReport) {
  appfl::data::TensorDataset empty;
  appfl::rng::Rng r(3);
  auto model = appfl::nn::logistic_regression(1, 1, r);
  const auto report =
      appfl::core::evaluate(*model, model->flat_parameters(), empty);
  EXPECT_EQ(report.samples, 0U);
  EXPECT_EQ(report.accuracy, 0.0);
}

}  // namespace

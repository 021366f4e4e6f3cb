// Dataset / DataLoader / synthetic generators.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "data/synth.hpp"
#include "rng/rng.hpp"

namespace {

using appfl::data::Batch;
using appfl::data::DataLoader;
using appfl::data::TensorDataset;
using appfl::tensor::Shape;
using appfl::tensor::Tensor;

TensorDataset tiny_dataset() {
  Tensor x({6, 2}, {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  return TensorDataset(std::move(x), {0, 1, 0, 1, 0, 1}, 2);
}

TEST(TensorDataset, BasicAccessors) {
  const auto ds = tiny_dataset();
  EXPECT_EQ(ds.size(), 6U);
  EXPECT_EQ(ds.sample_shape(), (Shape{2}));
  EXPECT_EQ(ds.num_classes(), 2U);
}

TEST(TensorDataset, GatherStacksRequestedSamples) {
  const auto ds = tiny_dataset();
  const std::vector<std::size_t> idx{4, 0};
  const Batch b = ds.gather(idx);
  EXPECT_EQ(b.inputs.shape(), (Shape{2, 2}));
  EXPECT_EQ(b.inputs.at({0, 0}), 4.0F);
  EXPECT_EQ(b.inputs.at({1, 0}), 0.0F);
  EXPECT_EQ(b.labels, (std::vector<std::size_t>{0, 0}));
}

TEST(TensorDataset, GatherRejectsOutOfRange) {
  const auto ds = tiny_dataset();
  const std::vector<std::size_t> idx{6};
  EXPECT_THROW(ds.gather(idx), appfl::Error);
}

TEST(TensorDataset, LabelsValidatedAgainstNumClasses) {
  Tensor x({2, 1}, {0, 1});
  EXPECT_THROW(TensorDataset(std::move(x), {0, 2}, 2), appfl::Error);
}

TEST(TensorDataset, SubsetAndAll) {
  const auto ds = tiny_dataset();
  const std::vector<std::size_t> idx{1, 3, 5};
  const TensorDataset sub = ds.subset(idx);
  EXPECT_EQ(sub.size(), 3U);
  for (std::size_t y : sub.labels()) EXPECT_EQ(y, 1U);
  EXPECT_EQ(ds.all().size(), 6U);
}

TEST(DataLoader, CoversEverySampleOncePerEpoch) {
  const auto ds = tiny_dataset();
  DataLoader loader(ds, 4, /*shuffle=*/true, 7);
  EXPECT_EQ(loader.num_batches(), 2U);
  std::multiset<float> seen;
  for (std::size_t b = 0; b < loader.num_batches(); ++b) {
    const Batch batch = loader.batch(b);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      seen.insert(batch.inputs.at({i, 0}));
    }
  }
  EXPECT_EQ(seen.size(), 6U);
  for (float v : {0.0F, 1.0F, 2.0F, 3.0F, 4.0F, 5.0F}) {
    EXPECT_EQ(seen.count(v), 1U) << v;
  }
}

TEST(DataLoader, LastBatchIsSmaller) {
  const auto ds = tiny_dataset();
  DataLoader loader(ds, 4, false, 0);
  EXPECT_EQ(loader.batch(0).size(), 4U);
  EXPECT_EQ(loader.batch(1).size(), 2U);
  EXPECT_THROW(loader.batch(2), appfl::Error);
}

TEST(DataLoader, ShuffleChangesOrderAcrossEpochs) {
  // 32 samples so an identical permutation across epochs is implausible.
  Tensor x({32, 1});
  for (std::size_t i = 0; i < 32; ++i) x[i] = static_cast<float>(i);
  TensorDataset ds(std::move(x), std::vector<std::size_t>(32, 0), 1);
  DataLoader loader(ds, 32, true, 3);
  const Batch e0 = loader.batch(0);
  loader.next_epoch();
  const Batch e1 = loader.batch(0);
  EXPECT_FALSE(e0.inputs.equals(e1.inputs));
  EXPECT_EQ(loader.epoch(), 1U);
}

TEST(DataLoader, NoShuffleIsSequential) {
  const auto ds = tiny_dataset();
  DataLoader loader(ds, 3, false, 0);
  const Batch b0 = loader.batch(0);
  EXPECT_EQ(b0.inputs.at({0, 0}), 0.0F);
  EXPECT_EQ(b0.inputs.at({2, 0}), 2.0F);
}

// -- Synthetic datasets --------------------------------------------------------

TEST(Synth, GenerateSamplesIsDeterministic) {
  const auto a = appfl::data::generate_samples(1, 8, 8, 4, 16, 0.5, 99);
  const auto b = appfl::data::generate_samples(1, 8, 8, 4, 16, 0.5, 99);
  EXPECT_TRUE(a.inputs().equals(b.inputs()));
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(Synth, DifferentSeedsDiffer) {
  const auto a = appfl::data::generate_samples(1, 8, 8, 4, 16, 0.5, 1);
  const auto b = appfl::data::generate_samples(1, 8, 8, 4, 16, 0.5, 2);
  EXPECT_FALSE(a.inputs().equals(b.inputs()));
}

TEST(Synth, ClassPoolRestrictsLabels) {
  const std::vector<std::size_t> pool{1, 3};
  const auto ds =
      appfl::data::generate_samples(1, 8, 8, 5, 64, 0.5, 11, 2, &pool);
  for (std::size_t y : ds.labels()) {
    EXPECT_TRUE(y == 1 || y == 3) << y;
  }
}

TEST(Synth, ClassesAreSeparable) {
  // Per-class mean images should be far apart relative to noise: the mean
  // over samples of class c approaches prototype c.
  const auto ds = appfl::data::generate_samples(1, 8, 8, 2, 400, 0.5, 21);
  std::vector<double> mean0(64, 0.0), mean1(64, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto& m = ds.labels()[i] == 0 ? mean0 : mean1;
    (ds.labels()[i] == 0 ? n0 : n1)++;
    for (std::size_t j = 0; j < 64; ++j) {
      m[j] += ds.inputs()[i * 64 + j];
    }
  }
  ASSERT_GT(n0, 50U);
  ASSERT_GT(n1, 50U);
  double dist2 = 0.0;
  for (std::size_t j = 0; j < 64; ++j) {
    const double d = mean0[j] / n0 - mean1[j] / n1;
    dist2 += d * d;
  }
  EXPECT_GT(std::sqrt(dist2), 2.0);  // prototypes are O(1) per pixel over 64 px
}

TEST(Synth, MnistLikeShapes) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 32;
  spec.test_size = 40;
  const auto split = appfl::data::mnist_like(spec);
  EXPECT_EQ(split.num_clients(), 4U);
  EXPECT_EQ(split.clients[0].sample_shape(), (Shape{1, 28, 28}));
  EXPECT_EQ(split.clients[0].num_classes(), 10U);
  EXPECT_EQ(split.test.size(), 40U);
  EXPECT_EQ(split.total_train(), 4U * 32U);
}

TEST(Synth, Cifar10LikeIsRgb32) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 8;
  spec.test_size = 8;
  const auto split = appfl::data::cifar10_like(spec);
  EXPECT_EQ(split.clients[0].sample_shape(), (Shape{3, 32, 32}));
}

TEST(Synth, CoronahackLikeIsLargeGrayscale3Class) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 8;
  spec.test_size = 8;
  const auto split = appfl::data::coronahack_like(spec);
  EXPECT_EQ(split.clients[0].sample_shape(), (Shape{1, 64, 64}));
  EXPECT_EQ(split.clients[0].num_classes(), 3U);
}

TEST(Synth, MnistLikeHonoursTheSpecShape) {
  appfl::data::SynthImageSpec spec;
  spec.channels = 2;
  spec.height = 6;
  spec.width = 5;
  spec.num_classes = 3;
  spec.train_per_client = 16;
  spec.test_size = 24;
  const auto split = appfl::data::mnist_like(spec);
  for (const auto* ds : {&split.clients[0], &split.test}) {
    EXPECT_EQ(ds->sample_shape(), (Shape{2, 6, 5}));
    EXPECT_EQ(ds->num_classes(), 3U);
    for (std::size_t y : ds->labels()) EXPECT_LT(y, 3U);
  }
}

TEST(Synth, FixedShapePresetsNameAMovedShapeField) {
  // cifar10_like and coronahack_like keep their shape: a field left at its
  // default or set to the preset's own value is fine, any other value
  // throws naming the field instead of being dropped.
  using Preset = appfl::data::FederatedSplit (*)(appfl::data::SynthImageSpec);
  const std::pair<Preset, const char*> presets[] = {
      {appfl::data::cifar10_like, "cifar10_like"},
      {appfl::data::coronahack_like, "coronahack_like"}};
  for (const auto& [preset, name] : presets) {
    for (const char* field : {"channels", "height", "width", "num_classes"}) {
      appfl::data::SynthImageSpec spec;
      spec.train_per_client = 4;
      spec.test_size = 4;
      const std::string f = field;
      std::size_t& value = f == "channels"  ? spec.channels
                           : f == "height"  ? spec.height
                           : f == "width"   ? spec.width
                                            : spec.num_classes;
      value = 5;
      try {
        preset(spec);
        ADD_FAILURE() << name << " accepted " << field << " = 5";
      } catch (const appfl::Error& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 4;
  spec.test_size = 4;
  spec.channels = 3;
  spec.height = 32;
  const auto split = appfl::data::cifar10_like(spec);
  EXPECT_EQ(split.clients[0].sample_shape(), (Shape{3, 32, 32}));
}

TEST(Synth, FemnistLikeIsNonIidAndUnbalanced) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = 24;
  spec.mean_samples_per_writer = 40;
  spec.test_size = 64;
  const auto split = appfl::data::femnist_like(spec);
  EXPECT_EQ(split.num_clients(), 24U);

  std::set<std::size_t> sizes;
  std::size_t max_writer_classes = 0;
  for (const auto& client : split.clients) {
    sizes.insert(client.size());
    std::set<std::size_t> classes(client.labels().begin(),
                                  client.labels().end());
    max_writer_classes = std::max(max_writer_classes, classes.size());
    // Label non-IID: each writer draws from ≤ max_classes_per_writer classes.
    EXPECT_LE(classes.size(), spec.max_classes_per_writer);
  }
  EXPECT_GT(sizes.size(), 4U);       // unbalanced counts
  EXPECT_GT(max_writer_classes, 2U);  // but not degenerate
  EXPECT_EQ(split.test.num_classes(), 62U);
}

TEST(Synth, SmartGridShapesAndDeterminism) {
  appfl::data::SmartGridSpec spec;
  spec.num_utilities = 3;
  spec.train_per_utility = 16;
  spec.test_size = 16;
  spec.seed = 61;
  const auto a = appfl::data::smartgrid_like(spec);
  const auto b = appfl::data::smartgrid_like(spec);
  EXPECT_EQ(a.num_clients(), 3U);
  EXPECT_EQ(a.clients[0].sample_shape(), (Shape{1, 1, 96}));
  EXPECT_EQ(a.test.num_classes(), 4U);
  EXPECT_TRUE(a.clients[1].inputs().equals(b.clients[1].inputs()));
  EXPECT_EQ(a.clients[1].labels(), b.clients[1].labels());
}

TEST(Synth, SmartGridConsumerTypesAreSeparable) {
  // Per-class mean profiles must be far apart relative to noise, like the
  // image datasets — the generator shares the prototype machinery.
  appfl::data::SmartGridSpec spec;
  spec.num_utilities = 1;
  spec.train_per_utility = 400;
  spec.test_size = 8;
  spec.noise = 0.5;
  spec.seed = 62;
  const auto split = appfl::data::smartgrid_like(spec);
  const auto& ds = split.clients[0];
  std::vector<std::vector<double>> means(4, std::vector<double>(96, 0.0));
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::size_t y = ds.labels()[i];
    ++counts[y];
    for (std::size_t j = 0; j < 96; ++j) {
      means[y][j] += ds.inputs()[i * 96 + j];
    }
  }
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_GT(counts[c], 30U);
    for (auto& v : means[c]) v /= static_cast<double>(counts[c]);
  }
  double min_dist = 1e9;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      double d2 = 0.0;
      for (std::size_t j = 0; j < 96; ++j) {
        const double d = means[a][j] - means[b][j];
        d2 += d * d;
      }
      min_dist = std::min(min_dist, std::sqrt(d2));
    }
  }
  EXPECT_GT(min_dist, 2.0);
}

TEST(Synth, FemnistWritersHaveDistinctStyles) {
  // Same class, different writers ⇒ different feature distribution. Compare
  // per-writer sample means over many samples: styles shift the mean.
  appfl::data::FemnistSpec spec;
  spec.num_writers = 2;
  spec.mean_samples_per_writer = 120;
  spec.min_classes_per_writer = 62;
  spec.max_classes_per_writer = 62;  // both writers see all classes
  spec.test_size = 8;
  const auto split = appfl::data::femnist_like(spec);
  auto mean_of = [](const TensorDataset& ds) {
    double acc = 0.0;
    for (float v : ds.inputs().data()) acc += v;
    return acc / static_cast<double>(ds.inputs().size());
  };
  EXPECT_GT(std::abs(mean_of(split.clients[0]) - mean_of(split.clients[1])),
            0.02);
}

TEST(Synth, PrototypesBuiltOncePerDatasetMatchTheStandaloneGenerator) {
  // Data sets and populations build their class prototypes once; every
  // shard must equal what generate_samples (which builds its own) draws.
  auto same = [](const TensorDataset& a, const TensorDataset& b) {
    return a.inputs().equals(b.inputs()) && a.labels() == b.labels();
  };
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 12;
  spec.test_size = 10;
  spec.seed = 71;
  const auto split = appfl::data::cifar10_like(spec);
  for (std::size_t p = 0; p < split.num_clients(); ++p) {
    EXPECT_TRUE(same(split.clients[p],
                     appfl::data::generate_samples(
                         3, 32, 32, 10, 12, 1.4, 71, /*writer_id=*/0,
                         /*class_pool=*/nullptr, /*sample_stream=*/p + 1)))
        << p;
  }

  appfl::data::FemnistSpec fspec;
  fspec.num_writers = 40;
  fspec.test_size = 16;
  fspec.seed = 72;
  const auto femnist = appfl::data::femnist_like(fspec);
  const appfl::data::SyntheticPopulation pop(fspec);
  const auto standalone_test = appfl::data::generate_samples(
      1, 28, 28, 62, 16, fspec.noise, 72, /*writer_id=*/0,
      /*class_pool=*/nullptr, /*sample_stream=*/999999);
  EXPECT_TRUE(same(femnist.test, standalone_test));
  EXPECT_TRUE(same(pop.test_set(), standalone_test));
  // A writer's shard is a pure function of (spec, id), cache or not.
  EXPECT_TRUE(same(pop.materialize(7), pop.materialize(7)));
}

}  // namespace

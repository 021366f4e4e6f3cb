// Dropout, AvgPool2d, the train/eval mode plumbing, and the no-grad guard.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "nn/activation.hpp"
#include "nn/avgpool2d.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"

namespace {

using appfl::nn::AvgPool2d;
using appfl::nn::Dropout;
using appfl::nn::Module;
using appfl::nn::NoGradGuard;
using appfl::nn::Tensor;
using appfl::nn::grad_enabled;
using appfl::tensor::Shape;

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5F);
  d.set_training(false);
  const Tensor x = Tensor::from({1, 2, 3, 4});
  EXPECT_TRUE(d.forward(x).equals(x));
  const Tensor g = Tensor::from({5, 6, 7, 8});
  EXPECT_TRUE(d.backward(g).equals(g));
}

TEST(Dropout, ZeroProbabilityIsIdentityInTraining) {
  Dropout d(0.0F);
  const Tensor x = Tensor::from({1, 2, 3});
  EXPECT_TRUE(d.forward(x).equals(x));
}

TEST(Dropout, TrainingDropsApproximatelyPFraction) {
  Dropout d(0.3F, 7);
  Tensor x({10000});
  x.fill(1.0F);
  const Tensor y = d.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0F) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
  // Inverted scaling keeps the expectation: E[y] = 1.
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

TEST(Dropout, BackwardUsesTheSameMask) {
  Dropout d(0.5F, 9);
  Tensor x({64});
  x.fill(2.0F);
  const Tensor y = d.forward(x);
  Tensor g({64});
  g.fill(1.0F);
  const Tensor gx = d.backward(g);
  for (std::size_t i = 0; i < 64; ++i) {
    // Gradient flows exactly where the activation survived.
    EXPECT_EQ(gx[i] == 0.0F, y[i] == 0.0F) << i;
    if (y[i] != 0.0F) EXPECT_NEAR(gx[i], 2.0F, 1e-6F);  // 1/(1−p) = 2
  }
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(Dropout(1.0F), appfl::Error);
  EXPECT_THROW(Dropout(-0.1F), appfl::Error);
}

TEST(Dropout, SequentialPropagatesTrainingMode) {
  appfl::rng::Rng r(3);
  appfl::nn::Sequential model;
  model.add(std::make_unique<appfl::nn::Linear>(4, 4, r));
  model.add(std::make_unique<Dropout>(0.9F, 5));
  model.set_training(false);
  const Tensor x({2, 4}, std::vector<float>(8, 1.0F));
  // Deterministic in eval mode: two forwards agree despite p = 0.9.
  EXPECT_TRUE(model.forward(x).equals(model.forward(x)));
}

TEST(AvgPool, ForwardComputesWindowMeans) {
  AvgPool2d pool(2, 2);
  Tensor x({1, 1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_NEAR(y[0], (1 + 2 + 5 + 6) / 4.0F, 1e-6F);
  EXPECT_NEAR(y[1], (3 + 4 + 7 + 8) / 4.0F, 1e-6F);
}

TEST(AvgPool, BackwardSpreadsUniformly) {
  AvgPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  pool.forward(x);
  Tensor g({1, 1, 1, 1}, {8.0F});
  const Tensor gx = pool.backward(g);
  for (float v : gx.data()) EXPECT_NEAR(v, 2.0F, 1e-6F);
}

TEST(AvgPool, GradientMatchesFiniteDifferences) {
  AvgPool2d pool(2, 2);
  appfl::rng::Rng r(11);
  Tensor x = Tensor::randn({2, 2, 4, 6}, r);
  auto loss_of = [&](const Tensor& t) {
    double acc = 0.0;
    for (float v : t.data()) acc += 0.5 * static_cast<double>(v) * v;
    return acc;
  };
  const Tensor y = pool.forward(x);
  const Tensor gx = pool.backward(y);  // dL/dy = y for L = ½‖y‖²
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < x.size(); i += 7) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of(pool.forward(x));
    x[i] = orig - eps;
    const double lm = loss_of(pool.forward(x));
    x[i] = orig;
    EXPECT_NEAR(gx[i], (lp - lm) / (2.0 * eps), 1e-2) << i;
  }
}

TEST(AvgPool, CloneIsIndependent) {
  AvgPool2d pool(3, 1);
  auto copy = pool.clone();
  EXPECT_EQ(copy->name(), "AvgPool2d(k=3, s=1)");
}

TEST(Dropout, CloneReproducesConfiguration) {
  Dropout d(0.25F, 42);
  d.set_training(false);
  auto copy_ptr = d.clone();
  auto* copy = dynamic_cast<Dropout*>(copy_ptr.get());
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->p(), 0.25F);
  EXPECT_FALSE(copy->training());
}

// ------------------------------------------------------------ no-grad ----

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/// The message `m.backward(g)` throws (empty when it does not throw).
std::string backward_error(Module& m, const Tensor& g) {
  try {
    m.backward(g);
  } catch (const appfl::Error& e) {
    return e.what();
  }
  return "";
}

/// Every layer that caches activations for backward, and a Sequential.
struct NoGradCase {
  const char* name;
  std::function<std::unique_ptr<Module>()> make;
  Shape input;
};

std::vector<NoGradCase> no_grad_cases() {
  return {
      {"Linear",
       [] {
         appfl::rng::Rng r(1);
         return std::make_unique<appfl::nn::Linear>(6, 4, r);
       },
       {3, 6}},
      {"Conv2d",
       [] {
         appfl::rng::Rng r(2);
         return std::make_unique<appfl::nn::Conv2d>(2, 3, 3, r, 1, 1);
       },
       {2, 2, 5, 5}},
      {"ReLU", [] { return std::make_unique<appfl::nn::ReLU>(); }, {2, 7}},
      {"Tanh", [] { return std::make_unique<appfl::nn::Tanh>(); }, {2, 7}},
      {"MaxPool2d", [] { return std::make_unique<appfl::nn::MaxPool2d>(2, 2); },
       {2, 3, 4, 4}},
      {"AvgPool2d", [] { return std::make_unique<AvgPool2d>(2, 2); },
       {2, 3, 4, 4}},
      {"Flatten", [] { return std::make_unique<appfl::nn::Flatten>(); },
       {2, 3, 4, 4}},
      {"Sequential",
       [] {
         appfl::rng::Rng r(3);
         return appfl::nn::paper_cnn(1, 8, 8, 5, r);
       },
       {2, 1, 8, 8}},
  };
}

TEST(NoGrad, ForwardKeepsItsBitsAndLeavesNothingForBackward) {
  for (const NoGradCase& c : no_grad_cases()) {
    SCOPED_TRACE(c.name);
    appfl::rng::Rng r(7);
    const Tensor x = Tensor::randn(c.input, r);
    auto plain = c.make();
    auto guarded = c.make();
    const Tensor y = plain->forward(x);
    Tensor y_guarded;
    {
      const NoGradGuard no_grad;
      y_guarded = guarded->forward(x);
    }
    EXPECT_TRUE(same_bits(y_guarded, y));

    // A guarded forward leaves what a layer that never ran forward has: its
    // backward throws that layer's existing before-forward error.
    const Tensor g = Tensor::randn(y.shape(), r);
    const std::string fresh_error = backward_error(*c.make(), g);
    ASSERT_FALSE(fresh_error.empty());
    EXPECT_EQ(backward_error(*guarded, g), fresh_error);

    // An unguarded forward still feeds backward; a guarded forward after it
    // drops the cache again.
    EXPECT_EQ(backward_error(*plain, g), "");
    {
      const NoGradGuard no_grad;
      EXPECT_TRUE(same_bits(plain->forward(x), y));
    }
    EXPECT_EQ(backward_error(*plain, g), fresh_error);
  }
}

TEST(NoGrad, GuardsNestRestoreAndStayOnTheirThread) {
  EXPECT_TRUE(grad_enabled());
  {
    const NoGradGuard outer;
    EXPECT_FALSE(grad_enabled());
    {
      const NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());
    bool other_thread = false;
    std::thread([&] { other_thread = grad_enabled(); }).join();
    EXPECT_TRUE(other_thread);
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(NoGrad, DropoutFollowsTrainingModeAlone) {
  appfl::rng::Rng r(8);
  const Tensor x = Tensor::randn({4, 16}, r);
  Dropout plain(0.5F, 21), guarded(0.5F, 21);
  const Tensor y = plain.forward(x);
  Tensor y_guarded;
  {
    const NoGradGuard no_grad;
    y_guarded = guarded.forward(x);
  }
  // Training mode still draws the same mask and keeps it for backward.
  EXPECT_TRUE(same_bits(y_guarded, y));
  EXPECT_FALSE(y.equals(x));
  const Tensor g = Tensor::randn(x.shape(), r);
  EXPECT_TRUE(same_bits(guarded.backward(g), plain.backward(g)));
  // Eval mode is the identity, guard or not.
  guarded.set_training(false);
  const NoGradGuard no_grad;
  EXPECT_TRUE(guarded.forward(x).equals(x));
}

TEST(NoGrad, BatchNormFollowsTrainingModeAlone) {
  appfl::rng::Rng r(9);
  const Tensor x = Tensor::randn({3, 2, 4, 4}, r, 2.0F);
  appfl::nn::BatchNorm2d plain(2), guarded(2);
  const Tensor y = plain.forward(x);
  Tensor y_guarded;
  {
    const NoGradGuard no_grad;
    y_guarded = guarded.forward(x);
  }
  // Training mode: batch statistics, running estimates updated, backward
  // available.
  EXPECT_TRUE(same_bits(y_guarded, y));
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(guarded.running_mean()[c], plain.running_mean()[c]);
    EXPECT_EQ(guarded.running_var()[c], plain.running_var()[c]);
  }
  const Tensor g = Tensor::randn(x.shape(), r);
  EXPECT_TRUE(same_bits(guarded.backward(g), plain.backward(g)));
  // Eval mode: running estimates, guard or not.
  plain.set_training(false);
  guarded.set_training(false);
  const Tensor y_eval = plain.forward(x);
  const NoGradGuard no_grad;
  EXPECT_TRUE(same_bits(guarded.forward(x), y_eval));
  EXPECT_FALSE(same_bits(y_eval, y));
}

}  // namespace

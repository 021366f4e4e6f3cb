// NN layers, losses, optimizer, model zoo: behavioural unit tests.
// (Finite-difference gradient checks live in test_gradcheck.cpp.)
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "rng/rng.hpp"
#include "tensor/ops.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"

namespace {

using appfl::nn::Linear;
using appfl::nn::Sequential;
using appfl::nn::Tensor;
using appfl::tensor::Shape;

TEST(Linear, ForwardComputesAffineMap) {
  appfl::rng::Rng r(1);
  Linear lin(2, 2, r);
  // Overwrite with known weights: y = x·Wᵀ + b.
  lin.params()[0]->value = Tensor({2, 2}, {1, 2, 3, 4});  // W
  lin.params()[1]->value = Tensor({2}, {0.5F, -0.5F});    // b
  const Tensor x({1, 2}, {10, 20});
  const Tensor y = lin.forward(x);
  EXPECT_NEAR(y.at({0, 0}), 1 * 10 + 2 * 20 + 0.5F, 1e-5F);
  EXPECT_NEAR(y.at({0, 1}), 3 * 10 + 4 * 20 - 0.5F, 1e-5F);
}

TEST(Linear, BackwardAccumulatesAcrossCalls) {
  appfl::rng::Rng r(2);
  Linear lin(3, 2, r);
  const Tensor x({2, 3}, {1, 0, 0, 0, 1, 0});
  const Tensor gy({2, 2}, {1, 1, 1, 1});
  lin.forward(x);
  lin.backward(gy);
  Tensor twice = lin.params()[0]->grad;
  appfl::tensor::add_inplace(twice, lin.params()[0]->grad);
  lin.forward(x);
  lin.backward(gy);
  EXPECT_TRUE(lin.params()[0]->grad.allclose(twice, 1e-5F));
}

TEST(Linear, RejectsWrongInputWidth) {
  appfl::rng::Rng r(3);
  Linear lin(4, 2, r);
  EXPECT_THROW(lin.forward(Tensor({1, 3})), appfl::Error);
}

TEST(Linear, InitializationIsBounded) {
  appfl::rng::Rng r(4);
  Linear lin(100, 10, r);
  const float bound = 1.0F / std::sqrt(100.0F);
  for (float v : lin.params()[0]->value.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(ReLU, ForwardAndMask) {
  appfl::nn::ReLU relu;
  const Tensor x({1, 4}, {-1, 0, 2, -3});
  EXPECT_TRUE(relu.forward(x).equals(Tensor({1, 4}, {0, 0, 2, 0})));
  const Tensor gy({1, 4}, {10, 10, 10, 10});
  EXPECT_TRUE(relu.backward(gy).equals(Tensor({1, 4}, {0, 0, 10, 0})));
}

/// ReLU's bit contract is the scalar select it replaced: forward maps every
/// x that is not > 0 (NaN and −0 included) to +0, and backward keeps g where
/// !(x <= 0) (NaN x included) and writes +0 elsewhere. These are that loop.
std::vector<float> relu_forward_oracle(std::vector<float> x) {
  for (auto& v : x) v = v > 0.0F ? v : 0.0F;
  return x;
}

std::vector<float> relu_backward_oracle(const std::vector<float>& x,
                                        std::vector<float> g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0F) g[i] = 0.0F;
  }
  return g;
}

/// memcmp of n floats; an empty range is equal (memcmp may not see null).
bool same_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(ReLU, MatchesTheScalarSelectBitForBitAtEveryLength) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0F,  -0.0F, nan,  -nan,      inf,  -inf,
                            tiny,  -tiny, 1e-39F, -1e-39F, 1.5F, -2.5F};
  appfl::rng::Rng r(11);
  for (std::size_t n = 0; n <= 67; ++n) {
    // Specials at rotating positions, so every vector lane and every tail
    // slot sees each of them across the lengths.
    Tensor x = Tensor::randn({n}, r);
    Tensor g = Tensor::randn({n}, r);
    for (std::size_t i = 0; i < n; ++i) {
      if ((i + n) % 3 == 0) x[i] = specials[(i + n) % std::size(specials)];
      if ((i + n) % 5 == 0) g[i] = specials[(i * 7 + n) % std::size(specials)];
    }
    const std::vector<float> xs(x.data().begin(), x.data().end());
    const std::vector<float> gs(g.data().begin(), g.data().end());
    appfl::nn::ReLU relu;
    const Tensor y = relu.forward(x);
    const Tensor dx = relu.backward(g);
    const std::vector<float> y_oracle = relu_forward_oracle(xs);
    const std::vector<float> dx_oracle = relu_backward_oracle(xs, gs);
    ASSERT_EQ(y.size(), n);
    ASSERT_EQ(dx.size(), n);
    EXPECT_TRUE(same_bits(y.raw(), y_oracle.data(), n)) << "forward, n=" << n;
    EXPECT_TRUE(same_bits(dx.raw(), dx_oracle.data(), n))
        << "backward, n=" << n;
  }
  // The contract's corners, spelled out.
  appfl::nn::ReLU relu;
  const Tensor y = relu.forward(Tensor::from({-0.0F, nan, -1.0F, tiny}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(std::signbit(y[i])) << i;
    EXPECT_EQ(y[i], 0.0F) << i;
  }
  EXPECT_EQ(y[3], tiny);
  const Tensor dx = relu.backward(Tensor::from({5.0F, 6.0F, 7.0F, 8.0F}));
  EXPECT_EQ(dx[0], 0.0F);  // x = −0 <= 0
  EXPECT_EQ(dx[1], 6.0F);  // NaN x: !(x <= 0), so the gradient passes
  EXPECT_EQ(dx[2], 0.0F);
  EXPECT_EQ(dx[3], 8.0F);
}

TEST(Flatten, RoundTripsShape) {
  appfl::nn::Flatten flat;
  const Tensor x({2, 3, 4, 5});
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), (Shape{2, 3, 4, 5}));
}

TEST(Sequential, ComposesAndCollectsParams) {
  appfl::rng::Rng r(5);
  auto model = appfl::nn::mlp(4, 8, 3, r);
  EXPECT_EQ(model->params().size(), 4U);  // two Linear layers × (W, b)
  EXPECT_EQ(model->num_parameters(), 4U * 8U + 8U + 8U * 3U + 3U);
  const Tensor x({2, 4});
  EXPECT_EQ(model->forward(x).shape(), (Shape{2, 3}));
}

TEST(Sequential, CloneIsDeepAndEqualInitially) {
  appfl::rng::Rng r(6);
  auto model = appfl::nn::mlp(4, 8, 3, r);
  auto copy_ptr = model->clone();
  auto& copy = *copy_ptr;
  EXPECT_EQ(model->flat_parameters(), copy.flat_parameters());
  // Mutating the copy must not affect the original.
  auto flat = copy.flat_parameters();
  flat[0] += 1.0F;
  copy.set_flat_parameters(flat);
  EXPECT_NE(model->flat_parameters()[0], copy.flat_parameters()[0]);
}

TEST(Module, FlatParameterRoundTrip) {
  appfl::rng::Rng r(7);
  auto model = appfl::nn::paper_cnn(1, 28, 28, 10, r);
  const auto flat = model->flat_parameters();
  EXPECT_EQ(flat.size(), model->num_parameters());
  std::vector<float> doubled = flat;
  for (auto& v : doubled) v *= 2.0F;
  model->set_flat_parameters(doubled);
  EXPECT_EQ(model->flat_parameters(), doubled);
  EXPECT_THROW(model->set_flat_parameters(std::vector<float>(flat.size() - 1)),
               appfl::Error);
}

TEST(Module, ZeroGradClearsAllGradients) {
  appfl::rng::Rng r(8);
  auto model = appfl::nn::mlp(4, 4, 2, r);
  const Tensor x({3, 4}, std::vector<float>(12, 1.0F));
  model->backward(model->forward(x));
  bool any_nonzero = false;
  for (float g : model->flat_gradients()) {
    if (g != 0.0F) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  model->zero_grad();
  for (float g : model->flat_gradients()) EXPECT_EQ(g, 0.0F);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  appfl::nn::CrossEntropyLoss ce;
  const Tensor logits({2, 4});
  const std::vector<std::size_t> labels{0, 3};
  const auto res = ce.compute(logits, labels);
  EXPECT_NEAR(res.loss, std::log(4.0), 1e-6);
}

TEST(CrossEntropy, GradientIsSoftmaxMinusOnehotOverN) {
  appfl::nn::CrossEntropyLoss ce;
  const Tensor logits({1, 2}, {0.0F, 0.0F});
  const std::vector<std::size_t> labels{1};
  const auto res = ce.compute(logits, labels);
  EXPECT_NEAR(res.grad.at({0, 0}), 0.5F, 1e-6F);
  EXPECT_NEAR(res.grad.at({0, 1}), -0.5F, 1e-6F);
}

TEST(CrossEntropy, RejectsBadLabels) {
  appfl::nn::CrossEntropyLoss ce;
  const Tensor logits({1, 3});
  EXPECT_THROW(ce.compute(logits, std::vector<std::size_t>{3}), appfl::Error);
  EXPECT_THROW(ce.compute(logits, std::vector<std::size_t>{0, 1}), appfl::Error);
}

TEST(CrossEntropy, PerfectPredictionHasTinyLoss) {
  appfl::nn::CrossEntropyLoss ce;
  const Tensor logits({1, 2}, {100.0F, -100.0F});
  EXPECT_LT(ce.compute(logits, std::vector<std::size_t>{0}).loss, 1e-6);
}

TEST(Sgd, PlainStepIsGradientDescent) {
  appfl::rng::Rng r(9);
  Linear lin(1, 1, r);
  lin.params()[0]->value = Tensor({1, 1}, {2.0F});
  lin.params()[1]->value = Tensor({1}, {0.0F});
  lin.params()[0]->grad = Tensor({1, 1}, {1.0F});
  appfl::nn::Sgd opt(0.1F);
  opt.step(lin);
  EXPECT_NEAR(lin.params()[0]->value[0], 1.9F, 1e-6F);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  appfl::rng::Rng r(10);
  Linear lin(1, 1, r);
  lin.params()[0]->value = Tensor({1, 1}, {0.0F});
  lin.params()[1]->value = Tensor({1}, {0.0F});
  appfl::nn::Sgd opt(1.0F, 0.5F);
  lin.params()[0]->grad = Tensor({1, 1}, {1.0F});
  opt.step(lin);  // v=1, w=-1
  EXPECT_NEAR(lin.params()[0]->value[0], -1.0F, 1e-6F);
  lin.params()[0]->grad = Tensor({1, 1}, {1.0F});
  opt.step(lin);  // v=1.5, w=-2.5
  EXPECT_NEAR(lin.params()[0]->value[0], -2.5F, 1e-6F);
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(appfl::nn::Sgd(0.0F), appfl::Error);
  EXPECT_THROW(appfl::nn::Sgd(0.1F, 1.0F), appfl::Error);
  EXPECT_THROW(appfl::nn::Sgd(0.1F, -0.1F), appfl::Error);
}

TEST(SgdWeightDecay, PullsWeightsTowardZero) {
  appfl::rng::Rng r(7);
  appfl::nn::Linear lin(1, 1, r);
  lin.params()[0]->value = Tensor({1, 1}, {10.0F});
  lin.params()[1]->value = Tensor({1});
  lin.zero_grad();  // gradient 0: only decay acts
  appfl::nn::Sgd opt(0.1F, 0.0F, /*weight_decay=*/0.5F);
  opt.step(lin);
  // w ← w − lr·λ·w = 10 − 0.1·0.5·10 = 9.5.
  EXPECT_NEAR(lin.params()[0]->value[0], 9.5F, 1e-6F);
}

TEST(LrSchedule, ConstantStepAndCosine) {
  using appfl::nn::LrSchedule;
  using appfl::nn::scheduled_lr;
  EXPECT_FLOAT_EQ(scheduled_lr(LrSchedule::kConstant, 0.1F, 7, 10), 0.1F);
  // Step decay with total 9 ⇒ step = 3: rounds 1-3 full, 4-6 half, 7-9 1/4.
  EXPECT_FLOAT_EQ(scheduled_lr(LrSchedule::kStepDecay, 0.4F, 2, 9), 0.4F);
  EXPECT_FLOAT_EQ(scheduled_lr(LrSchedule::kStepDecay, 0.4F, 4, 9), 0.2F);
  EXPECT_FLOAT_EQ(scheduled_lr(LrSchedule::kStepDecay, 0.4F, 9, 9), 0.1F);
  // Cosine: full at round 1, ~half at the midpoint, → small at the end.
  EXPECT_FLOAT_EQ(scheduled_lr(LrSchedule::kCosine, 0.2F, 1, 10), 0.2F);
  EXPECT_NEAR(scheduled_lr(LrSchedule::kCosine, 0.2F, 6, 10), 0.1F, 0.02F);
  EXPECT_LT(scheduled_lr(LrSchedule::kCosine, 0.2F, 10, 10), 0.02F);
  EXPECT_THROW(scheduled_lr(LrSchedule::kCosine, 0.2F, 0, 10), appfl::Error);
}

TEST(ModelZoo, PaperCnnShapesForAllDatasets) {
  appfl::rng::Rng r(11);
  struct Case {
    std::size_t c, h, w, classes;
  };
  for (const auto& cs : {Case{1, 28, 28, 10}, Case{3, 32, 32, 10},
                         Case{1, 28, 28, 62}, Case{1, 64, 64, 3}}) {
    auto model = appfl::nn::paper_cnn(cs.c, cs.h, cs.w, cs.classes, r);
    const Tensor x({2, cs.c, cs.h, cs.w});
    EXPECT_EQ(model->forward(x).shape(), (Shape{2, cs.classes}));
  }
}

TEST(ModelZoo, ForwardFlopsArePositiveAndScaleWithBatch) {
  appfl::rng::Rng r(12);
  auto model = appfl::nn::paper_cnn(1, 28, 28, 10, r);
  const double f1 = model->forward_flops(1);
  EXPECT_GT(f1, 1e5);
  EXPECT_NEAR(model->forward_flops(4) / f1, 4.0, 0.2);
}

TEST(ModelZoo, LogisticIsOneLinearLayer) {
  appfl::rng::Rng r(13);
  auto model = appfl::nn::logistic_regression(10, 3, r);
  EXPECT_EQ(model->num_parameters(), 10U * 3U + 3U);
}

}  // namespace

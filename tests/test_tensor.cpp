// Unit tests for the Tensor type and elementwise/reduction ops.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>

#include "rng/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using appfl::Error;
using appfl::tensor::Shape;
using appfl::tensor::Tensor;

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(appfl::tensor::numel({2, 3, 4}), 24U);
  EXPECT_EQ(appfl::tensor::numel({}), 1U);
  EXPECT_EQ(appfl::tensor::numel({5, 0}), 0U);
  EXPECT_EQ(appfl::tensor::to_string({1, 28, 28}), "[1, 28, 28]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6U);
  for (float v : t.data()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, ConstructionChecksValueCount) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at({0, 0}), 0.0F);
  EXPECT_EQ(t.at({0, 2}), 2.0F);
  EXPECT_EQ(t.at({1, 1}), 4.0F);
  t.at({1, 2}) = 9.0F;
  EXPECT_EQ(t[5], 9.0F);
}

TEST(Tensor, IndexingOutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0, 3}), Error);
  EXPECT_THROW(t.at({0}), Error);  // wrong rank
  EXPECT_THROW(t[6], Error);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  t.reshape({3, 2});
  EXPECT_EQ(t.at({2, 1}), 5.0F);
  EXPECT_THROW(t.reshape({4, 2}), Error);
  const Tensor r = t.reshaped({6});
  EXPECT_EQ(r.rank(), 1U);
  EXPECT_EQ(t.rank(), 2U);  // original untouched
}

TEST(Tensor, FactoriesProduceExpectedContents) {
  EXPECT_EQ(Tensor::full({3}, 2.5F)[1], 2.5F);
  const Tensor t = Tensor::from({1.0F, 2.0F});
  EXPECT_EQ(t.shape(), (Shape{2}));
  appfl::rng::Rng r(5);
  const Tensor u = Tensor::rand_uniform({100}, r, -1.0F, 1.0F);
  for (float v : u.data()) {
    EXPECT_GE(v, -1.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(Tensor, RandnIsDeterministicGivenRngSeed) {
  appfl::rng::Rng r1(5), r2(5);
  EXPECT_TRUE(Tensor::randn({10}, r1).equals(Tensor::randn({10}, r2)));
}

TEST(Tensor, EqualsAndAllclose) {
  const Tensor a = Tensor::from({1, 2, 3});
  Tensor b = a;
  EXPECT_TRUE(a.equals(b));
  b[0] += 1e-6F;
  EXPECT_FALSE(a.equals(b));
  EXPECT_TRUE(a.allclose(b, 1e-5F));
  EXPECT_FALSE(a.allclose(b, 1e-7F));
  EXPECT_FALSE(a.allclose(Tensor({4})));
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({2});
  EXPECT_THROW(appfl::tensor::add_inplace(a, Tensor({3})), Error);
}

TEST(Ops, Blas1OnSpans) {
  std::vector<float> x{1, 2, 3}, y{1, 1, 1};
  appfl::tensor::axpy(2.0F, x, y);
  EXPECT_EQ(y, (std::vector<float>{3, 5, 7}));
  appfl::tensor::scal(0.5F, y);
  EXPECT_EQ(y, (std::vector<float>{1.5F, 2.5F, 3.5F}));
  EXPECT_DOUBLE_EQ(appfl::tensor::dot(x, x), 14.0);
  EXPECT_NEAR(appfl::tensor::norm2(x), std::sqrt(14.0), 1e-12);
}

TEST(Ops, ClipNormScalesDownOnly) {
  std::vector<float> v{3.0F, 4.0F};  // ‖v‖ = 5
  const float f1 = appfl::tensor::clip_norm(v, 10.0F);
  EXPECT_EQ(f1, 1.0F);
  EXPECT_EQ(v, (std::vector<float>{3.0F, 4.0F}));
  const float f2 = appfl::tensor::clip_norm(v, 1.0F);
  EXPECT_NEAR(f2, 0.2F, 1e-6F);
  EXPECT_NEAR(appfl::tensor::norm2(v), 1.0, 1e-6);
}

TEST(Ops, ClipNormOnZeroVectorIsNoop) {
  std::vector<float> v{0.0F, 0.0F};
  EXPECT_EQ(appfl::tensor::clip_norm(v, 1.0F), 1.0F);
}

TEST(Ops, ArgmaxRows) {
  const Tensor t({2, 3}, {0.1F, 0.9F, 0.2F, 5.0F, 1.0F, 4.9F});
  const auto idx = appfl::tensor::argmax_rows(t);
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 0}));
  EXPECT_THROW(appfl::tensor::argmax_rows(Tensor({3})), Error);
}

TEST(Ops, SoftmaxRowsIsAProbabilityDistribution) {
  const Tensor t({2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor s = appfl::tensor::softmax_rows(t);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      const float p = s.at({r, c});
      EXPECT_GT(p, 0.0F);
      EXPECT_LT(p, 1.0F);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Row-wise monotone in the logits.
  EXPECT_LT(s.at({0, 0}), s.at({0, 2}));
}

TEST(Ops, SoftmaxIsNumericallyStableForLargeLogits) {
  const Tensor t({1, 2}, {1000.0F, 1001.0F});
  const Tensor s = appfl::tensor::softmax_rows(t);
  EXPECT_FALSE(std::isnan(s[0]));
  EXPECT_NEAR(s[0] + s[1], 1.0F, 1e-6F);
}

}  // namespace

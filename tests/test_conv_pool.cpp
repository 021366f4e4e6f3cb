// Convolution and pooling kernels: known cases + finite-difference checks of
// every backward path.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "rng/rng.hpp"
#include "tensor/conv.hpp"
#include "tensor/pool.hpp"

namespace {

using appfl::tensor::Conv2dSpec;
using appfl::tensor::MaxPool2dSpec;
using appfl::tensor::Shape;
using appfl::tensor::Tensor;

double loss_of(const Tensor& t) {
  // Simple scalar functional: L = Σ 0.5·y², so dL/dy = y.
  double acc = 0.0;
  for (float v : t.data()) acc += 0.5 * static_cast<double>(v) * v;
  return acc;
}

Tensor grad_of(const Tensor& t) { return t; }

TEST(Conv2dSpec, OutputExtent) {
  Conv2dSpec s{1, 1, 3, 1, 0};
  EXPECT_EQ(s.out_extent(5), 3U);
  s.padding = 1;
  EXPECT_EQ(s.out_extent(5), 5U);
  s.stride = 2;
  EXPECT_EQ(s.out_extent(5), 3U);
  Conv2dSpec bad{1, 1, 7, 1, 0};
  EXPECT_THROW(bad.out_extent(5), appfl::Error);
}

TEST(Conv2d, KnownValuesIdentityKernel) {
  // 3×3 kernel with a single 1 in the center reproduces the input (pad 1).
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  Tensor weight({1, 1, 3, 3});
  weight.at({0, 0, 1, 1}) = 1.0F;
  Tensor bias({1});
  const Tensor out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
  EXPECT_TRUE(out.allclose(input, 1e-6F));
}

TEST(Conv2d, BiasIsAddedToEveryOutput) {
  Conv2dSpec spec{1, 2, 3, 1, 1};
  const Tensor input({1, 1, 4, 4});
  const Tensor weight({2, 1, 3, 3});
  Tensor bias({2}, {1.5F, -2.0F});
  const Tensor out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) {
      EXPECT_EQ(out.at({0, 0, y, x}), 1.5F);
      EXPECT_EQ(out.at({0, 1, y, x}), -2.0F);
    }
  }
}

TEST(Conv2d, StridedShapes) {
  Conv2dSpec spec{3, 5, 3, 2, 1};
  appfl::rng::Rng r(1);
  const Tensor input = Tensor::randn({2, 3, 9, 9}, r);
  const Tensor weight = Tensor::randn({5, 3, 3, 3}, r);
  const Tensor bias = Tensor::randn({5}, r);
  const Tensor out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
  EXPECT_EQ(out.shape(), (Shape{2, 5, 5, 5}));
}

struct ConvCase {
  std::size_t cin, cout, k, stride, pad, h, w, n;
};

class ConvGradTest : public testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, BackwardMatchesFiniteDifferences) {
  const auto& c = GetParam();
  Conv2dSpec spec{c.cin, c.cout, c.k, c.stride, c.pad};
  appfl::rng::Rng r(c.cin * 17 + c.k);
  Tensor input = Tensor::randn({c.n, c.cin, c.h, c.w}, r, 0.5F);
  Tensor weight = Tensor::randn({c.cout, c.cin, c.k, c.k}, r, 0.5F);
  Tensor bias = Tensor::randn({c.cout}, r, 0.5F);

  const Tensor out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
  const Tensor gy = grad_of(out);
  const Tensor gx =
      appfl::tensor::conv2d_backward_input(gy, weight, input.shape(), spec);
  const Tensor gw = appfl::tensor::conv2d_backward_weight(gy, input, spec);
  const Tensor gb = appfl::tensor::conv2d_backward_bias(gy);

  const float eps = 1e-2F;
  auto fd_check = [&](Tensor& param, const Tensor& analytic, const char* tag) {
    // Check a deterministic subset of coordinates (dense check is O(n²)).
    const std::size_t stride_idx = std::max<std::size_t>(1, param.size() / 24);
    for (std::size_t i = 0; i < param.size(); i += stride_idx) {
      const float orig = param[i];
      param[i] = orig + eps;
      const double lp = loss_of(
          appfl::tensor::conv2d_forward(input, weight, bias, spec));
      param[i] = orig - eps;
      const double lm = loss_of(
          appfl::tensor::conv2d_forward(input, weight, bias, spec));
      param[i] = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], fd, 5e-2 * (1.0 + std::abs(fd)))
          << tag << " coord " << i;
    }
  };
  fd_check(input, gx, "input");
  fd_check(weight, gw, "weight");
  fd_check(bias, gb, "bias");
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ConvGradTest,
    testing::Values(ConvCase{1, 1, 3, 1, 0, 5, 5, 1},
                    ConvCase{1, 2, 3, 1, 1, 6, 6, 2},
                    ConvCase{2, 3, 3, 2, 1, 7, 7, 1},
                    ConvCase{3, 2, 5, 1, 2, 8, 6, 1},
                    ConvCase{2, 2, 1, 1, 0, 4, 4, 2}),
    [](const testing::TestParamInfo<ConvCase>& i) {
      const auto& c = i.param;
      return "c" + std::to_string(c.cin) + "o" + std::to_string(c.cout) + "k" +
             std::to_string(c.k) + "s" + std::to_string(c.stride) + "p" +
             std::to_string(c.pad);
    });

TEST(MaxPool, ForwardSelectsMaxAndRecordsArgmax) {
  MaxPool2dSpec spec{2, 2};
  Tensor input({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const auto result = appfl::tensor::maxpool2d_forward(input, spec);
  EXPECT_EQ(result.output.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(result.output.at({0, 0, 0, 0}), 5.0F);
  EXPECT_EQ(result.output.at({0, 0, 1, 1}), 15.0F);
  EXPECT_EQ(result.argmax[0], 5U);
  EXPECT_EQ(result.argmax[3], 15U);
}

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  MaxPool2dSpec spec{2, 2};
  Tensor input({1, 1, 2, 2}, {1, 9, 3, 4});
  const auto fwd = appfl::tensor::maxpool2d_forward(input, spec);
  Tensor gy({1, 1, 1, 1}, {7.0F});
  const Tensor gx =
      appfl::tensor::maxpool2d_backward(gy, fwd.argmax, input.shape());
  EXPECT_TRUE(gx.equals(Tensor({1, 1, 2, 2}, {0, 7, 0, 0})));
}

TEST(MaxPool, GradientMatchesFiniteDifferences) {
  MaxPool2dSpec spec{2, 2};
  appfl::rng::Rng r(9);
  Tensor input = Tensor::randn({2, 3, 6, 6}, r);
  const auto fwd = appfl::tensor::maxpool2d_forward(input, spec);
  const Tensor gy = grad_of(fwd.output);
  const Tensor gx =
      appfl::tensor::maxpool2d_backward(gy, fwd.argmax, input.shape());
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < input.size(); i += 13) {
    const float orig = input[i];
    input[i] = orig + eps;
    const double lp = loss_of(appfl::tensor::maxpool2d_forward(input, spec).output);
    input[i] = orig - eps;
    const double lm = loss_of(appfl::tensor::maxpool2d_forward(input, spec).output);
    input[i] = orig;
    EXPECT_NEAR(gx[i], (lp - lm) / (2.0 * eps), 1e-2) << "coord " << i;
  }
}

/// MaxPool's bit contract is the scalar scan it replaced: per window, the
/// first strict maximum in (ky, kx) order and its absolute input index.
appfl::tensor::MaxPoolResult maxpool_oracle(const Tensor& input,
                                            const MaxPool2dSpec& spec) {
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  appfl::tensor::MaxPoolResult result{Tensor({n, c, oh, ow}), {}};
  result.argmax.resize(n * c * oh * ow);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t plane = (img * c + ch) * h * w;
      const float* x = input.raw() + plane;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::size_t iy0 = oy * spec.stride;
          const std::size_t ix0 = ox * spec.stride;
          float best = x[iy0 * w + ix0];
          std::size_t best_idx = iy0 * w + ix0;
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
              const std::size_t idx = (iy0 + ky) * w + (ix0 + kx);
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = ((img * c + ch) * oh + oy) * ow + ox;
          result.output.raw()[out_idx] = best;
          result.argmax[out_idx] = plane + best_idx;
        }
      }
    }
  }
  return result;
}

TEST(MaxPool, MatchesTheScalarScanBitForBit) {
  // Inputs drawn from a small set with repeats, so windows hold ties, NaN
  // and −0/+0 pairs in their first and later slots; widths with and without
  // a multiple of four windows per row, and rows narrower than four.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {0.0F, -0.0F, nan, 1.0F, 1.0F, -1.0F, 2.0F, -inf, inf};
  appfl::rng::Rng r(21);
  const std::size_t extents[][2] = {{4, 4}, {5, 7}, {7, 5}, {9, 19},
                                    {28, 28}, {3, 11}, {6, 2}};
  for (const auto& hw : extents) {
    for (const MaxPool2dSpec spec :
         {MaxPool2dSpec{2, 2}, MaxPool2dSpec{2, 1}, MaxPool2dSpec{3, 2},
          MaxPool2dSpec{3, 1}, MaxPool2dSpec{1, 2}, MaxPool2dSpec{3, 3}}) {
      if (spec.kernel > std::min(hw[0], hw[1])) continue;
      Tensor input({2, 3, hw[0], hw[1]});
      for (auto& v : input.data()) {
        v = pool[r.uniform_below(std::size(pool))];
      }
      const auto got = appfl::tensor::maxpool2d_forward(input, spec);
      const auto want = maxpool_oracle(input, spec);
      ASSERT_EQ(got.output.shape(), want.output.shape());
      const std::string where = std::to_string(hw[0]) + "x" +
                                std::to_string(hw[1]) + " k" +
                                std::to_string(spec.kernel) + " s" +
                                std::to_string(spec.stride);
      EXPECT_EQ(std::memcmp(got.output.raw(), want.output.raw(),
                            want.output.size() * sizeof(float)),
                0)
          << where;
      EXPECT_EQ(got.argmax, want.argmax) << where;
    }
  }
}

TEST(MaxPool, KeepsTheFirstStrictMaximum) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Four 2×2 windows in one row: a tie, −0 before +0, NaN first, NaN later.
  const Tensor input({1, 1, 2, 8}, {3, 3, -0.0F, 0, nan, 9, 1, nan,  //
                                    3, 1, 0, 0, 9, 9, 2, 1});
  const auto result = appfl::tensor::maxpool2d_forward(input, {2, 2});
  EXPECT_EQ(result.argmax,
            (std::vector<std::size_t>{0, 2, 4, 14}));  // 14: the 2 below
  EXPECT_EQ(result.output[0], 3.0F);
  EXPECT_TRUE(std::signbit(result.output[1]));  // −0 came first
  EXPECT_TRUE(std::isnan(result.output[2]));    // a NaN first slot stays
  EXPECT_EQ(result.output[3], 2.0F);            // a later NaN never wins
}

TEST(MaxPool, NonSquareAndStride1) {
  MaxPool2dSpec spec{2, 1};
  appfl::rng::Rng r(3);
  const Tensor input = Tensor::randn({1, 1, 3, 5}, r);
  const auto result = appfl::tensor::maxpool2d_forward(input, spec);
  EXPECT_EQ(result.output.shape(), (Shape{1, 1, 2, 4}));
}

}  // namespace

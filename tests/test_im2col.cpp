// im2col/col2im and the GEMM convolution path: structural checks plus
// equivalence with the direct kernels over a shape sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "scoped_kernel_config.hpp"
#include "util/check.hpp"

#include "rng/rng.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "nn/conv2d.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace {

using appfl::tensor::Conv2dSpec;
using appfl::tensor::Shape;
using appfl::tensor::Tensor;

TEST(Im2col, PatchLayoutForKnownInput) {
  // 1×1×3×3 input 0..8, k=2, stride 1, no padding ⇒ 4 patches of 4.
  Conv2dSpec spec{1, 1, 2, 1, 0};
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const Tensor cols = appfl::tensor::im2col(x, spec);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Patch at (0,0): 0 1 3 4; at (0,1): 1 2 4 5; at (1,0): 3 4 6 7.
  EXPECT_TRUE(cols.reshaped({16}).equals(
      Tensor({16}, {0, 1, 3, 4, 1, 2, 4, 5, 3, 4, 6, 7, 4, 5, 7, 8})));
}

TEST(Im2col, PaddingYieldsZeros) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor cols = appfl::tensor::im2col(x, spec);
  ASSERT_EQ(cols.shape(), (Shape{4, 9}));
  // The top-left patch has its first row and column padded with zeros.
  EXPECT_EQ(cols.at({0, 0}), 0.0F);
  EXPECT_EQ(cols.at({0, 4}), 1.0F);  // center = input(0,0)
}

TEST(Col2im, IsAdjointOfIm2col) {
  // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint property that
  // makes the GEMM backward correct.
  Conv2dSpec spec{2, 1, 3, 2, 1};
  appfl::rng::Rng r(5);
  const Tensor x = Tensor::randn({2, 2, 5, 6}, r);
  const Tensor cols = appfl::tensor::im2col(x, spec);
  const Tensor y = Tensor::randn(cols.shape(), r);
  const Tensor folded = appfl::tensor::col2im(y, x.shape(), spec);
  EXPECT_NEAR(appfl::tensor::dot(cols.data(), y.data()),
              appfl::tensor::dot(x.data(), folded.data()), 1e-2);
}

/// im2col by its definition: one bounds-checked read per patch element.
std::vector<float> gather_patches(const Tensor& x, const Conv2dSpec& spec) {
  const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel;
  std::vector<float> cols;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ic = 0; ic < cin; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const long iy = static_cast<long>(oy * spec.stride + ky) -
                              static_cast<long>(spec.padding);
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              const bool inside = iy >= 0 && iy < static_cast<long>(h) &&
                                  ix >= 0 && ix < static_cast<long>(w);
              cols.push_back(
                  inside ? x.at({img, ic, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix)})
                         : 0.0F);
            }
          }
        }
      }
    }
  }
  return cols;
}

TEST(Im2col, MatchesBoundsCheckedGatherBitForBit) {
  // Interior windows and border windows take different paths in
  // im2col_into; every combination here has both.
  appfl::rng::Rng r(17);
  const std::size_t extents[][2] = {{7, 9}, {6, 4}};
  for (const auto& hw : extents) {
    for (const std::size_t cin : {1UL, 3UL}) {
      const Tensor x = Tensor::randn({2, cin, hw[0], hw[1]}, r);
      for (const std::size_t k : {1UL, 3UL, 5UL}) {
        for (const std::size_t stride : {1UL, 2UL}) {
          for (const std::size_t pad : {0UL, 1UL, 2UL}) {
            if (k > std::min(hw[0], hw[1]) + 2 * pad) continue;
            const Conv2dSpec spec{cin, 1, k, stride, pad};
            const Tensor cols = appfl::tensor::im2col(x, spec);
            const std::vector<float> expected = gather_patches(x, spec);
            ASSERT_EQ(cols.size(), expected.size());
            EXPECT_EQ(std::memcmp(cols.raw(), expected.data(),
                                  expected.size() * sizeof(float)),
                      0)
                << hw[0] << "x" << hw[1] << " cin=" << cin << " k=" << k
                << " stride=" << stride << " pad=" << pad;
          }
        }
      }
    }
  }
}

/// col2im by its definition: the bounds-checked scatter of each window, in
/// ascending (oy, ox) order, into a gradient that starts at +0.0.
Tensor scatter_patches(const float* cols, const Shape& shape,
                       const Conv2dSpec& spec) {
  const std::size_t n = shape[0], cin = shape[1], h = shape[2], w = shape[3];
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel;
  Tensor x(shape);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ic = 0; ic < cin; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const long iy = static_cast<long>(oy * spec.stride + ky) -
                              static_cast<long>(spec.padding);
              const long ix = static_cast<long>(ox * spec.stride + kx) -
                              static_cast<long>(spec.padding);
              if (iy < 0 || iy >= static_cast<long>(h) || ix < 0 ||
                  ix >= static_cast<long>(w)) {
                continue;
              }
              x.at({img, ic, static_cast<std::size_t>(iy),
                    static_cast<std::size_t>(ix)}) +=
                  cols[(ic * k + ky) * k + kx];
            }
          }
        }
        cols += cin * k * k;
      }
    }
  }
  return x;
}

TEST(Col2im, MatchesBoundsCheckedScatterBitForBit) {
  // Interior windows and border windows take different paths in col2im;
  // every combination here has both. Every fourth contribution is −0.0 (a
  // stride coprime with k = 3 and 5, so −0.0 lands in every tap): a pixel
  // that receives only −0.0 must read +0.0, since the sum starts at +0.0,
  // and the all-−0.0 matrix checks that everywhere.
  appfl::rng::Rng r(19);
  const std::size_t extents[][2] = {{7, 9}, {6, 4}, {11, 13}};
  for (const auto& hw : extents) {
    for (const std::size_t cin : {1UL, 3UL}) {
      const Shape shape{2, cin, hw[0], hw[1]};
      for (const std::size_t k : {1UL, 3UL, 5UL}) {
        for (const std::size_t stride : {1UL, 2UL}) {
          for (const std::size_t pad : {0UL, 1UL, 2UL}) {
            if (k > std::min(hw[0], hw[1]) + 2 * pad) continue;
            const Conv2dSpec spec{cin, 1, k, stride, pad};
            const std::size_t rows =
                2 * spec.out_extent(hw[0]) * spec.out_extent(hw[1]);
            Tensor cols = Tensor::randn({rows, cin * k * k}, r);
            for (std::size_t i = 0; i < cols.size(); i += 4) cols[i] = -0.0F;
            const Tensor all_negative_zero =
                Tensor::full(cols.shape(), -0.0F);
            for (const Tensor* c : {&std::as_const(cols), &all_negative_zero}) {
              const Tensor got = appfl::tensor::col2im(*c, shape, spec);
              const Tensor want = scatter_patches(c->raw(), shape, spec);
              ASSERT_EQ(got.shape(), want.shape());
              EXPECT_EQ(std::memcmp(got.raw(), want.raw(),
                                    want.size() * sizeof(float)),
                        0)
                  << hw[0] << "x" << hw[1] << " cin=" << cin << " k=" << k
                  << " stride=" << stride << " pad=" << pad
                  << (c == &cols ? "" : " all -0.0");
            }
          }
        }
      }
    }
  }
  const Conv2dSpec spec{3, 1, 3, 1, 1};
  const Tensor zeros = appfl::tensor::col2im(
      Tensor::full({2 * 49, 27}, -0.0F), {2, 3, 7, 7}, spec);
  for (const float v : zeros.data()) ASSERT_FALSE(std::signbit(v));
}

struct GemmCase {
  std::size_t cin, cout, k, stride, pad, h, w, n;
};

class GemmEquivalenceTest : public testing::TestWithParam<GemmCase> {};

TEST_P(GemmEquivalenceTest, ForwardMatchesDirectKernel) {
  const auto& c = GetParam();
  Conv2dSpec spec{c.cin, c.cout, c.k, c.stride, c.pad};
  appfl::rng::Rng r(c.k * 31 + c.cin);
  const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, r);
  const Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, r);
  const Tensor b = Tensor::randn({c.cout}, r);
  const Tensor direct = appfl::tensor::conv2d_forward(x, w, b, spec);
  const Tensor gemm = appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
  EXPECT_TRUE(gemm.allclose(direct, 1e-4F));
}

TEST_P(GemmEquivalenceTest, BackwardWeightMatchesDirectKernel) {
  const auto& c = GetParam();
  Conv2dSpec spec{c.cin, c.cout, c.k, c.stride, c.pad};
  appfl::rng::Rng r(c.k * 37 + c.cout);
  const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, r);
  const Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, r);
  const Tensor b = Tensor::randn({c.cout}, r);
  const Tensor y = appfl::tensor::conv2d_forward(x, w, b, spec);
  const Tensor gy = Tensor::randn(y.shape(), r);
  const Tensor direct = appfl::tensor::conv2d_backward_weight(gy, x, spec);
  const Tensor gemm =
      appfl::tensor::conv2d_backward_gemm(gy, x, w, spec).weight;
  EXPECT_EQ(gemm.shape(), direct.shape());
  EXPECT_TRUE(gemm.allclose(direct, 1e-3F));
}

TEST_P(GemmEquivalenceTest, BackwardInputMatchesDirectKernel) {
  const auto& c = GetParam();
  Conv2dSpec spec{c.cin, c.cout, c.k, c.stride, c.pad};
  appfl::rng::Rng r(c.k * 41 + c.h);
  const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, r);
  const Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, r);
  const Tensor b = Tensor::randn({c.cout}, r);
  const Tensor y = appfl::tensor::conv2d_forward(x, w, b, spec);
  const Tensor gy = Tensor::randn(y.shape(), r);
  const Tensor direct =
      appfl::tensor::conv2d_backward_input(gy, w, x.shape(), spec);
  const Tensor gemm = appfl::tensor::conv2d_backward_gemm(gy, x, w, spec).input;
  EXPECT_TRUE(gemm.allclose(direct, 1e-4F));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalenceTest,
    testing::Values(GemmCase{1, 1, 3, 1, 0, 5, 5, 1},
                    GemmCase{1, 8, 3, 1, 1, 12, 12, 2},
                    GemmCase{3, 4, 3, 2, 1, 9, 11, 2},
                    GemmCase{2, 5, 5, 1, 2, 8, 8, 1},
                    GemmCase{4, 2, 1, 1, 0, 6, 6, 3},
                    GemmCase{2, 3, 3, 3, 0, 10, 10, 1}),
    [](const testing::TestParamInfo<GemmCase>& i) {
      const auto& c = i.param;
      return "c" + std::to_string(c.cin) + "o" + std::to_string(c.cout) + "k" +
             std::to_string(c.k) + "s" + std::to_string(c.stride) + "p" +
             std::to_string(c.pad) + "h" + std::to_string(c.h);
    });

TEST(Conv2dLayer, GemmBackendMatchesDirectBackend) {
  // The layer-level toggle: identical weights, identical outputs and grads.
  appfl::rng::Rng r1(77), r2(77);
  appfl::nn::Conv2d direct(2, 3, 3, r1, 1, 1, appfl::nn::Conv2d::Backend::kDirect);
  appfl::nn::Conv2d gemm(2, 3, 3, r2, 1, 1, appfl::nn::Conv2d::Backend::kGemm);
  ASSERT_EQ(direct.flat_parameters(), gemm.flat_parameters());

  appfl::rng::Rng rx(78);
  const Tensor x = Tensor::randn({2, 2, 7, 7}, rx);
  const Tensor yd = direct.forward(x);
  const Tensor yg = gemm.forward(x);
  EXPECT_TRUE(yg.allclose(yd, 1e-4F));

  const Tensor gy = Tensor::randn(yd.shape(), rx);
  const Tensor gxd = direct.backward(gy);
  const Tensor gxg = gemm.backward(gy);
  EXPECT_TRUE(gxg.allclose(gxd, 1e-4F));
  const auto gd = direct.flat_gradients();
  const auto gg = gemm.flat_gradients();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    EXPECT_NEAR(gd[i], gg[i], 1e-3F) << i;
  }
  // clone() preserves the backend.
  auto copy = gemm.clone();
  auto* conv_copy = dynamic_cast<appfl::nn::Conv2d*>(copy.get());
  ASSERT_NE(conv_copy, nullptr);
  EXPECT_EQ(conv_copy->backend(), appfl::nn::Conv2d::Backend::kGemm);
}

// The full GEMM-vs-direct sweep above runs under every engine backend: the
// padding/stride edge cases must hold whether the products go through the
// reference loops, the serial tiled kernel, or the parallel tiled kernel.
TEST_P(GemmEquivalenceTest, HoldsUnderEveryEngineBackend) {
  const auto& c = GetParam();
  Conv2dSpec spec{c.cin, c.cout, c.k, c.stride, c.pad};
  appfl::rng::Rng r(c.k * 53 + c.cin * 7 + c.h);
  const Tensor x = Tensor::randn({c.n, c.cin, c.h, c.w}, r);
  const Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, r);
  const Tensor b = Tensor::randn({c.cout}, r);
  const Tensor y = appfl::tensor::conv2d_forward(x, w, b, spec);
  const Tensor gy = Tensor::randn(y.shape(), r);
  const Tensor dw_direct = appfl::tensor::conv2d_backward_weight(gy, x, spec);
  const Tensor dx_direct =
      appfl::tensor::conv2d_backward_input(gy, w, x.shape(), spec);

  const appfl::tensor::KernelConfig configs[] = {
      {appfl::tensor::KernelBackend::kReference, 1},
      {appfl::tensor::KernelBackend::kTiled, 1},
      {appfl::tensor::KernelBackend::kTiled, 8},
  };
  for (const auto& config : configs) {
    appfl::testutil::ScopedKernelConfig guard(config);
    EXPECT_TRUE(appfl::tensor::conv2d_forward_gemm(x, w, b, spec)
                    .allclose(y, 1e-4F));
    const appfl::tensor::Conv2dGrads grads =
        appfl::tensor::conv2d_backward_gemm(gy, x, w, spec);
    EXPECT_TRUE(grads.weight.allclose(dw_direct, 1e-3F));
    EXPECT_TRUE(grads.input.allclose(dx_direct, 1e-4F));
  }
}

TEST(ConvEngine, DeterministicAcrossKernelThreadCounts) {
  // A CIFAR10-ish layer big enough to engage the parallel row-panel split:
  // forward and both backward products must be bit-identical for 1/2/8
  // kernel threads.
  Conv2dSpec spec{16, 32, 3, 1, 1};
  appfl::rng::Rng r(91);
  const Tensor x = Tensor::randn({4, 16, 16, 16}, r);
  const Tensor w = Tensor::randn({32, 16, 3, 3}, r);
  const Tensor b = Tensor::randn({32}, r);
  appfl::rng::Rng rg(92);

  Tensor y1, dw1, dx1, gy;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    appfl::testutil::ScopedKernelConfig guard(
        appfl::tensor::KernelBackend::kTiled, threads);
    const Tensor y = appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
    if (threads == 1) gy = Tensor::randn(y.shape(), rg);
    const appfl::tensor::Conv2dGrads grads =
        appfl::tensor::conv2d_backward_gemm(gy, x, w, spec);
    const Tensor& dw = grads.weight;
    const Tensor& dx = grads.input;
    if (threads == 1) {
      y1 = y;
      dw1 = dw;
      dx1 = dx;
    } else {
      EXPECT_TRUE(y.equals(y1)) << "threads=" << threads;
      EXPECT_TRUE(dw.equals(dw1)) << "threads=" << threads;
      EXPECT_TRUE(dx.equals(dx1)) << "threads=" << threads;
    }
  }
}

TEST(ConvEngine, WorkspaceIsReusedAcrossSteps) {
  // The arena amortization claim at the conv level: after one full
  // forward+backward warm-up, further steps at the same shapes allocate
  // nothing new on this thread.
  appfl::testutil::ScopedKernelConfig guard(
      appfl::tensor::KernelBackend::kTiled, 1);
  Conv2dSpec spec{8, 16, 3, 1, 1};
  appfl::rng::Rng r(17);
  const Tensor x = Tensor::randn({2, 8, 12, 12}, r);
  const Tensor w = Tensor::randn({16, 8, 3, 3}, r);
  const Tensor b = Tensor::randn({16}, r);
  const Tensor y = appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
  const Tensor gy = Tensor::randn(y.shape(), r);
  appfl::tensor::conv2d_backward_gemm(gy, x, w, spec);

  const std::size_t warm = appfl::tensor::Workspace::tls().allocations();
  for (int step = 0; step < 3; ++step) {
    appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
    appfl::tensor::conv2d_backward_gemm(gy, x, w, spec);
  }
  EXPECT_EQ(appfl::tensor::Workspace::tls().allocations(), warm);
}

/// The GEMM backward as the two lowerings the shared entry replaced, each
/// reordering grad_output itself: dW = gᵀ·im2col(x) and dX = col2im(g·W).
struct SeparateLowerings {
  Tensor weight, input;
};

SeparateLowerings separate_lowerings(const Tensor& gy, const Tensor& x,
                                     const Tensor& w, const Conv2dSpec& spec) {
  const std::size_t n = gy.dim(0), cout = gy.dim(1);
  const std::size_t plane = gy.dim(2) * gy.dim(3), rows = n * plane;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  std::vector<float> g_mat(rows * cout);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout; ++oc) {
      for (std::size_t pos = 0; pos < plane; ++pos) {
        g_mat[(img * plane + pos) * cout + oc] =
            gy.raw()[(img * cout + oc) * plane + pos];
      }
    }
  }
  SeparateLowerings out{
      Tensor({cout, spec.in_channels, spec.kernel, spec.kernel}), Tensor()};
  const Tensor cols = appfl::tensor::im2col(x, spec);
  appfl::tensor::gemm(appfl::tensor::Trans::kYes, appfl::tensor::Trans::kNo,
                      cout, patch, rows, g_mat.data(), cout, cols.raw(), patch,
                      out.weight.raw());
  std::vector<float> d_cols(rows * patch);
  appfl::tensor::gemm(appfl::tensor::Trans::kNo, appfl::tensor::Trans::kNo,
                      rows, patch, cout, g_mat.data(), cout, w.raw(), patch,
                      d_cols.data());
  out.input = scatter_patches(d_cols.data(), x.shape(), spec);
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

TEST(ConvBackward, SharedReorderMatchesTheSeparateLoweringsBitForBit) {
  struct Case {
    const char* name;
    GemmCase shape;
  };
  const Case cases[] = {
      {"paper_conv1", {1, 8, 3, 1, 1, 28, 28, 16}},
      {"paper_conv2", {8, 16, 3, 1, 1, 28, 28, 4}},
      // Odd channel counts and planes leave tails in both 4×4 reorders.
      {"odd", {3, 5, 3, 1, 1, 7, 9, 3}},
      {"strided", {3, 4, 3, 2, 1, 9, 11, 2}},
      {"k5", {2, 7, 5, 1, 2, 8, 8, 2}},
      {"k1", {4, 2, 1, 1, 0, 6, 6, 3}},
      {"k3s3", {2, 3, 3, 3, 0, 10, 10, 2}},
  };
  for (const std::size_t threads : {1UL, 4UL}) {
    appfl::testutil::ScopedKernelConfig guard(
        appfl::tensor::KernelBackend::kTiled, threads);
    for (const Case& c : cases) {
      const GemmCase& g = c.shape;
      const Conv2dSpec spec{g.cin, g.cout, g.k, g.stride, g.pad};
      appfl::rng::Rng r(g.cin * 59 + g.cout * 7 + g.h);
      const Tensor x = Tensor::randn({g.n, g.cin, g.h, g.w}, r);
      const Tensor w = Tensor::randn({g.cout, g.cin, g.k, g.k}, r);
      Tensor gy = Tensor::randn(
          {g.n, g.cout, spec.out_extent(g.h), spec.out_extent(g.w)}, r);
      for (std::size_t i = 0; i < gy.size(); i += 7) gy[i] = -0.0F;
      const appfl::tensor::Conv2dGrads grads =
          appfl::tensor::conv2d_backward_gemm(gy, x, w, spec);
      const SeparateLowerings want = separate_lowerings(gy, x, w, spec);
      const std::string where =
          std::string(c.name) + " threads=" + std::to_string(threads);
      EXPECT_TRUE(same_bits(grads.weight, want.weight)) << where;
      EXPECT_TRUE(same_bits(grads.input, want.input)) << where;
      EXPECT_TRUE(
          same_bits(grads.bias, appfl::tensor::conv2d_backward_bias(gy)))
          << where;
    }
  }
}

TEST(Conv2dLayer, AutoBackendFollowsEngineConfig) {
  appfl::rng::Rng r(5);
  appfl::nn::Conv2d layer(1, 2, 3, r);  // default backend: kAuto
  EXPECT_EQ(layer.backend(), appfl::nn::Conv2d::Backend::kAuto);
  {
    appfl::testutil::ScopedKernelConfig guard(
        appfl::tensor::KernelBackend::kTiled, 1);
    EXPECT_EQ(layer.resolved_backend(), appfl::nn::Conv2d::Backend::kGemm);
  }
  {
    appfl::testutil::ScopedKernelConfig guard(
        appfl::tensor::KernelBackend::kReference, 1);
    EXPECT_EQ(layer.resolved_backend(), appfl::nn::Conv2d::Backend::kDirect);
  }
  // Explicit backends are not second-guessed.
  appfl::rng::Rng r2(5);
  appfl::nn::Conv2d direct(1, 2, 3, r2, 1, 0,
                           appfl::nn::Conv2d::Backend::kDirect);
  appfl::testutil::ScopedKernelConfig guard(
      appfl::tensor::KernelBackend::kTiled, 1);
  EXPECT_EQ(direct.resolved_backend(), appfl::nn::Conv2d::Backend::kDirect);
}

// The grouped forward against one im2col + GEMM over the whole batch: every
// output bit must match, since the GEMM's bits depend on where its row tiles
// fall and on whether a product is tiny enough for the reference loops.
struct GroupLayer {
  const char* name;
  Conv2dSpec spec;
  std::size_t h, w;
};

Tensor one_shot_forward(const Tensor& x, const Tensor& weight,
                        const Tensor& bias, const Conv2dSpec& spec) {
  const std::size_t n = x.dim(0);
  const std::size_t oh = spec.out_extent(x.dim(2));
  const std::size_t ow = spec.out_extent(x.dim(3));
  const std::size_t plane = oh * ow, cout = spec.out_channels;
  const Tensor cols = appfl::tensor::im2col(x, spec);
  std::vector<float> mat(n * plane * cout);
  appfl::tensor::gemm(appfl::tensor::Trans::kNo, appfl::tensor::Trans::kYes,
                      n * plane, cout, cols.dim(1), cols.raw(), cols.dim(1),
                      weight.raw(), cols.dim(1), mat.data());
  Tensor out({n, cout, oh, ow});
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t pos = 0; pos < plane; ++pos) {
      for (std::size_t oc = 0; oc < cout; ++oc) {
        out.raw()[(img * cout + oc) * plane + pos] =
            mat[(img * plane + pos) * cout + oc] + bias.raw()[oc];
      }
    }
  }
  return out;
}

const GroupLayer kGroupLayers[] = {
    // The paper CNN's two convolutions on 28×28 inputs.
    {"paper_conv1", {1, 8, 3, 1, 1}, 28, 28},
    {"paper_conv2", {8, 16, 3, 1, 1}, 28, 28},
    // Small images: the group sits just above the tiny-product cut. With 8
    // outputs every tile is a ragged one; with 16 the tiles are full, so a
    // tiny group's reference loops would round differently.
    {"small8", {1, 8, 3, 1, 0}, 8, 8},
    {"small16", {1, 16, 3, 1, 0}, 8, 8},
    // Odd channel count and plane: tails in the forward's 4×4 reorder.
    {"odd", {3, 5, 3, 1, 1}, 7, 9},
};

TEST(ConvGroups, GroupSizeFillsRowTilesAndClearsTheTinyCut) {
  for (const GroupLayer& l : kGroupLayers) {
    const std::size_t g = appfl::tensor::conv2d_forward_group(l.spec, l.h, l.w);
    const std::size_t plane = l.spec.out_extent(l.h) * l.spec.out_extent(l.w);
    const std::size_t image_flops = plane * l.spec.out_channels *
                                    l.spec.in_channels * l.spec.kernel *
                                    l.spec.kernel;
    EXPECT_EQ(g * plane % appfl::tensor::kGemmRowTile, 0U) << l.name;
    EXPECT_GE(g * image_flops, appfl::tensor::kGemmTinyFlops) << l.name;
    // The fewest such images.
    for (std::size_t fewer = 1; fewer < g; ++fewer) {
      EXPECT_TRUE(fewer * plane % appfl::tensor::kGemmRowTile != 0 ||
                  fewer * image_flops < appfl::tensor::kGemmTinyFlops)
          << l.name << " fewer=" << fewer;
    }
  }
  // small8 has 36 rows and 2592 multiply-adds per image: 13 images (33696)
  // sit just above the cut.
  EXPECT_EQ(appfl::tensor::conv2d_forward_group(kGroupLayers[2].spec, 8, 8),
            13U);
}

/// Runs fn() on the worker of a one-thread pool: the conv forward groups
/// its images only on a pool worker.
void on_pool_worker(const std::function<void()>& fn) {
  appfl::util::ThreadPool pool(1);
  pool.submit(fn).get();
}

TEST(ConvGroups, GroupedForwardIsBitIdenticalToOneShotGemm) {
  for (const std::size_t threads : {1UL, 4UL}) {
    appfl::testutil::ScopedKernelConfig guard(
        appfl::tensor::KernelBackend::kTiled, threads);
    for (const GroupLayer& l : kGroupLayers) {
      const Conv2dSpec& spec = l.spec;
      const std::size_t g = appfl::tensor::conv2d_forward_group(spec, l.h, l.w);
      appfl::rng::Rng r(spec.in_channels * 131 + spec.out_channels);
      const Tensor w = Tensor::randn(
          {spec.out_channels, spec.in_channels, spec.kernel, spec.kernel}, r);
      const Tensor b = Tensor::randn({spec.out_channels}, r);
      for (const std::size_t n : {std::size_t{1}, g - 1, g, g + 1, 2 * g - 1,
                                  2 * g, std::size_t{255}, std::size_t{256},
                                  std::size_t{257}}) {
        if (n == 0) continue;
        const Tensor x = Tensor::randn({n, spec.in_channels, l.h, l.w}, r);
        const Tensor oracle = one_shot_forward(x, w, b, spec);
        Tensor grouped;
        on_pool_worker([&] {
          grouped = appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
        });
        const Tensor whole = appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
        for (const auto& [got, where] :
             {std::pair<const Tensor*, const char*>{&grouped, "on a worker"},
              {&whole, "off the pool"}}) {
          ASSERT_EQ(got->shape(), oracle.shape());
          EXPECT_EQ(std::memcmp(got->raw(), oracle.raw(),
                                oracle.size() * sizeof(float)),
                    0)
              << l.name << " n=" << n << " group=" << g
              << " threads=" << threads << " " << where;
        }
      }
    }
  }
}

TEST(ConvGroups, PatchMatrixHoldsOnlyTheLastGroup) {
  appfl::testutil::ScopedKernelConfig guard(
      appfl::tensor::KernelBackend::kTiled, 1);
  for (const GroupLayer& l : kGroupLayers) {
    const Conv2dSpec& spec = l.spec;
    const std::size_t n = 256;
    const std::size_t g = appfl::tensor::conv2d_forward_group(spec, l.h, l.w);
    const std::size_t last = g + n % g;  // the remainder rides the last group
    const std::size_t plane = spec.out_extent(l.h) * spec.out_extent(l.w);
    const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
    appfl::rng::Rng r(3);
    const Tensor x = Tensor::randn({n, spec.in_channels, l.h, l.w}, r);
    const Tensor w = Tensor::randn(
        {spec.out_channels, spec.in_channels, spec.kernel, spec.kernel}, r);
    const Tensor b = Tensor::randn({spec.out_channels}, r);
    std::size_t worker_slot = 0;
    on_pool_worker([&] {
      appfl::tensor::Workspace& ws = appfl::tensor::Workspace::tls();
      ws.release();
      appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
      worker_slot = ws.slot_floats(appfl::tensor::kWsIm2col);
    });
    EXPECT_LE(worker_slot, last * plane * patch) << l.name;
    EXPECT_LT(worker_slot, n * plane * patch) << l.name;

    // Off the pool the batch is one group.
    appfl::tensor::Workspace& ws = appfl::tensor::Workspace::tls();
    ws.release();
    appfl::tensor::conv2d_forward_gemm(x, w, b, spec);
    EXPECT_EQ(ws.slot_floats(appfl::tensor::kWsIm2col), n * plane * patch)
        << l.name;
    ws.release();
  }
}

TEST(Im2col, IntoMatchesAllocatingFlavor) {
  Conv2dSpec spec{2, 1, 3, 2, 1};
  appfl::rng::Rng r(6);
  const Tensor x = Tensor::randn({2, 2, 7, 9}, r);
  const Tensor cols = appfl::tensor::im2col(x, spec);
  std::vector<float> buf(cols.size(), -1.0F);
  appfl::tensor::im2col_into(x, spec, buf.data());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(buf[i], cols[i]) << i;
  }
}

TEST(Im2col, RejectsBadShapes) {
  Conv2dSpec spec{2, 1, 3, 1, 0};
  EXPECT_THROW(appfl::tensor::im2col(Tensor({1, 1, 5, 5}), spec), appfl::Error);
  EXPECT_THROW(appfl::tensor::im2col(Tensor({5, 5}), spec), appfl::Error);
  EXPECT_THROW(
      appfl::tensor::col2im(Tensor({3, 3}), {1, 2, 5, 5}, spec),
      appfl::Error);
}

}  // namespace

// Matmul kernels vs a naive reference, across transpose variants, sizes,
// and engine backends (reference vs tiled vs parallel tiled).
#include <gtest/gtest.h>

#include "scoped_kernel_config.hpp"
#include "util/check.hpp"

#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matmul.hpp"

namespace {

using appfl::tensor::Tensor;

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at({i, kk})) * b.at({kk, j});
      }
      c.at({i, j}) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (std::size_t i = 0; i < a.dim(0); ++i) {
    for (std::size_t j = 0; j < a.dim(1); ++j) t.at({j, i}) = a.at({i, j});
  }
  return t;
}

TEST(Matmul, KnownSmallCase) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = appfl::tensor::matmul(a, b);
  EXPECT_TRUE(c.equals(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(Matmul, IdentityIsNeutral) {
  appfl::rng::Rng r(1);
  const Tensor a = Tensor::randn({4, 4}, r);
  Tensor id({4, 4});
  for (std::size_t i = 0; i < 4; ++i) id.at({i, i}) = 1.0F;
  EXPECT_TRUE(appfl::tensor::matmul(a, id).allclose(a, 1e-6F));
  EXPECT_TRUE(appfl::tensor::matmul(id, a).allclose(a, 1e-6F));
}

TEST(Matmul, ShapeMismatchThrows) {
  EXPECT_THROW(appfl::tensor::matmul(Tensor({2, 3}), Tensor({2, 3})),
               appfl::Error);
  EXPECT_THROW(appfl::tensor::matmul(Tensor({2}), Tensor({2, 3})),
               appfl::Error);
}

struct MatmulSize {
  std::size_t m, k, n;
};

class MatmulSizeTest : public testing::TestWithParam<MatmulSize> {};

TEST_P(MatmulSizeTest, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  appfl::rng::Rng r(m * 1000 + k * 100 + n);
  const Tensor a = Tensor::randn({m, k}, r);
  const Tensor b = Tensor::randn({k, n}, r);
  const Tensor expected = naive_matmul(a, b);
  EXPECT_TRUE(appfl::tensor::matmul(a, b).allclose(expected, 1e-3F));
}

TEST_P(MatmulSizeTest, TransposeBMatchesPlain) {
  const auto [m, k, n] = GetParam();
  appfl::rng::Rng r(m + k + n);
  const Tensor a = Tensor::randn({m, k}, r);
  const Tensor b = Tensor::randn({k, n}, r);
  // A·B == matmul_bt(A, Bᵀ)
  EXPECT_TRUE(appfl::tensor::matmul_bt(a, transpose(b))
                  .allclose(naive_matmul(a, b), 1e-3F));
}

TEST_P(MatmulSizeTest, TransposeAMatchesPlain) {
  const auto [m, k, n] = GetParam();
  appfl::rng::Rng r(m * 7 + k * 3 + n);
  const Tensor a = Tensor::randn({m, k}, r);
  const Tensor b = Tensor::randn({k, n}, r);
  // A·B == matmul_at(Aᵀ, B)
  EXPECT_TRUE(appfl::tensor::matmul_at(transpose(a), b)
                  .allclose(naive_matmul(a, b), 1e-3F));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulSizeTest,
    testing::Values(MatmulSize{1, 1, 1}, MatmulSize{1, 5, 3},
                    MatmulSize{3, 1, 4}, MatmulSize{8, 8, 8},
                    MatmulSize{17, 33, 9},   // odd sizes cross block edges
                    MatmulSize{64, 64, 64},  // exactly one block
                    MatmulSize{65, 70, 66},  // straddles the 64-block
                    MatmulSize{2, 128, 2}),
    [](const testing::TestParamInfo<MatmulSize>& info) {
      return std::to_string(info.param.m) + "x" + std::to_string(info.param.k) +
             "x" + std::to_string(info.param.n);
    });

// -- Engine backend parity ---------------------------------------------------
//
// The shapes the model zoo actually runs: the paper CNN's post-pool linear
// layers on MNIST/CIFAR10 (batch × flattened-features × hidden/classes) and
// the im2col products of its 3×3 convs. Each must agree across reference,
// tiled-serial, and tiled-parallel within float tolerance, and the tiled
// results must be bitwise identical across 1/2/8 kernel threads.

class BackendParityTest : public testing::TestWithParam<MatmulSize> {};

TEST_P(BackendParityTest, BackendsAgreeOnAllVariants) {
  const auto [m, k, n] = GetParam();
  appfl::rng::Rng r(m * 131 + k * 17 + n);
  const Tensor a = Tensor::randn({m, k}, r);
  const Tensor b = Tensor::randn({k, n}, r);
  const Tensor bt = transpose(b);
  const Tensor at = transpose(a);

  // Entries are N(0,1), so C entries are ~N(0, √k); float rounding error
  // across backends grows with the same √k — scale the tolerance with it.
  const float tol = std::max(1e-3F, 1e-5F * static_cast<float>(k));

  const Tensor ref = appfl::tensor::matmul_reference(a, b);
  const Tensor ref_bt = appfl::tensor::matmul_bt_reference(a, bt);
  const Tensor ref_at = appfl::tensor::matmul_at_reference(at, b);
  EXPECT_TRUE(ref_bt.allclose(ref, tol));
  EXPECT_TRUE(ref_at.allclose(ref, tol));

  for (const std::size_t threads : {1UL, 8UL}) {
    appfl::testutil::ScopedKernelConfig guard(threads);
    EXPECT_TRUE(appfl::tensor::matmul(a, b).allclose(ref, tol))
        << "threads=" << threads;
    EXPECT_TRUE(appfl::tensor::matmul_bt(a, bt).allclose(ref, tol))
        << "threads=" << threads;
    EXPECT_TRUE(appfl::tensor::matmul_at(at, b).allclose(ref, tol))
        << "threads=" << threads;
  }
}

TEST_P(BackendParityTest, TiledIsBitwiseDeterministicAcrossThreads) {
  const auto [m, k, n] = GetParam();
  appfl::rng::Rng r(m * 313 + k * 7 + n);
  const Tensor a = Tensor::randn({m, k}, r);
  const Tensor b = Tensor::randn({k, n}, r);
  const Tensor bt = transpose(b);
  const Tensor at = transpose(a);

  Tensor base, base_bt, base_at;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    appfl::testutil::ScopedKernelConfig guard(threads);
    const Tensor c = appfl::tensor::matmul(a, b);
    const Tensor c_bt = appfl::tensor::matmul_bt(a, bt);
    const Tensor c_at = appfl::tensor::matmul_at(at, b);
    if (threads == 1) {
      base = c;
      base_bt = c_bt;
      base_at = c_at;
    } else {
      EXPECT_TRUE(c.equals(base)) << "threads=" << threads;
      EXPECT_TRUE(c_bt.equals(base_bt)) << "threads=" << threads;
      EXPECT_TRUE(c_at.equals(base_at)) << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelZooShapes, BackendParityTest,
    testing::Values(MatmulSize{64, 6272, 128},  // MNIST flatten → hidden
                    MatmulSize{64, 128, 10},    // hidden → classes
                    MatmulSize{32, 16384, 128}, // CIFAR10 flatten → hidden
                    MatmulSize{6272, 288, 32},  // conv2 im2col product
                    MatmulSize{97, 101, 103},   // primes: every edge ragged
                    MatmulSize{300, 160, 130}), // spans multiple MC blocks
    [](const testing::TestParamInfo<MatmulSize>& info) {
      return std::to_string(info.param.m) + "x" + std::to_string(info.param.k) +
             "x" + std::to_string(info.param.n);
    });

}  // namespace

// The kernel execution engine: thread-count selection, the workspace arena,
// the shared kernel pool, and — the contract the runner depends on — the
// nested-parallelism serial fallback (client-level outer, kernel-level
// inner; a kernel inside a pool task must never fan out again).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "scoped_kernel_config.hpp"

#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matmul.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace {

using appfl::tensor::KernelConfig;
using appfl::tensor::Tensor;
using appfl::tensor::Trans;
using appfl::testutil::ScopedKernelConfig;

// Big enough that gemm() takes the tiled path (≥ the tiny-product cutoff)
// and spans several MC=96 row blocks, so parallelism has something to chew.
Tensor big_a() {
  appfl::rng::Rng r(11);
  return Tensor::randn({300, 160}, r);
}
Tensor big_b() {
  appfl::rng::Rng r(12);
  return Tensor::randn({160, 130}, r);
}

TEST(KernelConfigTest, SetAndApply) {
  ScopedKernelConfig guard(0);
  appfl::tensor::apply_kernel_threads(3);
  EXPECT_EQ(appfl::tensor::kernel_config().threads, 3U);
  // 0 keeps the current value.
  appfl::tensor::apply_kernel_threads(0);
  EXPECT_EQ(appfl::tensor::kernel_config().threads, 3U);
}

TEST(KernelConfigTest, EnvDefaultsWarnAndIgnoreBadValues) {
  // Only the parser runs here: no pool is ever built from these values.
  const auto from_env = [](const char* threads) {
    ::setenv("APPFL_KERNEL_THREADS", threads, 1);
    const auto config = appfl::tensor::kernel_config_from_env();
    ::unsetenv("APPFL_KERNEL_THREADS");
    return config;
  };
  auto config = from_env("8");
  EXPECT_EQ(config.threads, 8U);
  testing::internal::CaptureStderr();
  config = from_env("abc");
  EXPECT_EQ(config.threads, 0U);
  config = from_env("5000");  // above kMaxKernelThreads
  EXPECT_EQ(config.threads, 0U);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("warning: ignoring invalid APPFL_KERNEL_THREADS='abc'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("APPFL_KERNEL_THREADS='5000' (need an integer in "
                     "[0, 1024])"),
            std::string::npos)
      << err;
}

TEST(KernelEngine, TiledMatchesReference) {
  const Tensor a = big_a(), b = big_b();
  const Tensor expected = appfl::tensor::matmul_reference(a, b);
  ScopedKernelConfig guard(2);
  EXPECT_TRUE(appfl::tensor::matmul(a, b).allclose(expected, 1e-3F));
}

TEST(KernelEngine, TopLevelCallFansOutOverRowPanels) {
  const Tensor a = big_a(), b = big_b();
  ScopedKernelConfig guard(2);
  appfl::tensor::matmul(a, b);
  // 300 rows / 96-row blocks = 4 chunks.
  EXPECT_GT(appfl::tensor::last_gemm_chunks(), 1U);
}

TEST(KernelEngine, NestedCallFallsBackToSerial) {
  // The acceptance contract: a gemm issued from inside a client-level pool
  // task must run serially on that worker instead of re-entering the
  // kernel pool (no oversubscription, no pool-in-pool deadlock).
  const Tensor a = big_a(), b = big_b();
  ScopedKernelConfig guard(4);
  const Tensor top_level = appfl::tensor::matmul(a, b);

  appfl::util::ThreadPool client_pool(2);
  std::atomic<std::size_t> max_chunks{0};
  std::atomic<int> ran{0};
  client_pool.parallel_for(4, [&](std::size_t) {
    ASSERT_TRUE(appfl::util::ThreadPool::on_worker_thread());
    const Tensor nested = appfl::tensor::matmul(a, b);
    // last_gemm_chunks is thread-local: read on the worker that ran it.
    std::size_t chunks = appfl::tensor::last_gemm_chunks();
    std::size_t prev = max_chunks.load();
    while (chunks > prev && !max_chunks.compare_exchange_weak(prev, chunks)) {
    }
    EXPECT_TRUE(nested.equals(top_level));
    ++ran;
  });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(max_chunks.load(), 1U);  // every nested call stayed serial
}

TEST(KernelEngine, DeterministicAcrossThreadCounts) {
  const Tensor a = big_a(), b = big_b();
  Tensor first;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    ScopedKernelConfig guard(threads);
    const Tensor c = appfl::tensor::matmul(a, b);
    if (threads == 1) {
      first = c;
    } else {
      EXPECT_TRUE(c.equals(first)) << "thread count " << threads
                                   << " changed the result bits";
    }
  }
}

TEST(KernelEngine, RawGemmHandlesDegenerateExtents) {
  // k == 0 must produce zeros (empty sum), not garbage from the workspace.
  float c[4] = {42.0F, 42.0F, 42.0F, 42.0F};
  appfl::tensor::gemm(Trans::kNo, Trans::kNo, 2, 2, 0, nullptr, 0, nullptr, 0,
                      c);
  for (float v : c) EXPECT_EQ(v, 0.0F);

  // Each degenerate call ran serially, so it reports one chunk even right
  // after a call that fanned out.
  const Tensor a = big_a(), b = big_b();
  ScopedKernelConfig guard(2);
  const std::size_t extents[][3] = {{2, 2, 0}, {0, 2, 2}, {2, 0, 2}};
  for (const auto& e : extents) {
    appfl::tensor::matmul(a, b);
    ASSERT_GT(appfl::tensor::last_gemm_chunks(), 1U);
    appfl::tensor::gemm(Trans::kNo, Trans::kNo, e[0], e[1], e[2], a.raw(),
                        e[2], b.raw(), e[1], c);
    EXPECT_EQ(appfl::tensor::last_gemm_chunks(), 1U)
        << "m=" << e[0] << " n=" << e[1] << " k=" << e[2];
  }
}

// -- Result bits -------------------------------------------------------------
//
// gemm's exact accumulation order, replayed in scalar code. Products under
// 32³ multiply-adds take the reference loops: one ascending-p chain per
// element, each step a multiply then an add. Larger products take the
// tiled path: per KC=256 block, one ascending-p chain per element, the
// block results summed into C by a separate add. The chain is fused
// (std::fma) only for elements of a full 6×16 tile when the AVX2 kernel is
// dispatched; ragged tiles and the portable kernel multiply then add.

constexpr std::size_t kOracleMr = 6, kOracleNr = 16, kOracleKc = 256;
constexpr std::size_t kOracleMc = 96, kOracleNc = 1024;

/// True when the tile holding `index` along an extent split into blocks of
/// `block` and tiles of `tile` is a full tile.
bool in_full_tile(std::size_t index, std::size_t extent, std::size_t block,
                  std::size_t tile) {
  const std::size_t block_start = index / block * block;
  const std::size_t block_len = std::min(block, extent - block_start);
  const std::size_t tile_start = (index - block_start) / tile * tile;
  return block_len - tile_start >= tile;
}

std::vector<float> gemm_oracle(Trans ta, Trans tb, std::size_t m,
                               std::size_t n, std::size_t k, const float* a,
                               std::size_t lda, const float* b,
                               std::size_t ldb) {
  const bool tiled = m * n * k >= 32 * 32 * 32;
  const std::size_t chain = tiled ? kOracleKc : k;
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool fused = tiled && appfl::tensor::gemm_uses_avx2() &&
                         in_full_tile(i, m, kOracleMc, kOracleMr) &&
                         in_full_tile(j, n, kOracleNc, kOracleNr);
      float total = 0.0F;
      for (std::size_t pc = 0; pc < k; pc += chain) {
        float block = 0.0F;
        for (std::size_t p = pc; p < std::min(pc + chain, k); ++p) {
          const float x = ta == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
          const float y = tb == Trans::kNo ? b[p * ldb + j] : b[j * ldb + p];
          block = fused ? std::fma(x, y, block) : block + x * y;
        }
        total = pc == 0 ? block : total + block;
      }
      c[i * n + j] = total;
    }
  }
  return c;
}

TEST(KernelEngine, GemmBitsMatchAccumulationOrderOracle) {
  struct Extents {
    std::size_t m, n, k;
  };
  const Extents shapes[] = {
      {7, 9, 5},       // reference loops
      {31, 33, 32},    // just under the tiled cutoff
      {32, 32, 32},    // at the cutoff
      {12, 32, 200},   // full tiles only
      {100, 32, 64},   // ragged rows, two row blocks
      {96, 40, 64},    // ragged columns
      {101, 45, 300},  // ragged rows and columns, two KC blocks
      {13, 1030, 40},  // two NC blocks, the second one ragged
  };
  const Trans both[] = {Trans::kNo, Trans::kYes};
  appfl::rng::Rng r(29);
  for (const Extents& s : shapes) {
    const Tensor a = Tensor::randn({s.m * s.k}, r);
    const Tensor b = Tensor::randn({s.k * s.n}, r);
    for (const Trans ta : both) {
      for (const Trans tb : both) {
        const std::size_t lda = ta == Trans::kNo ? s.k : s.m;
        const std::size_t ldb = tb == Trans::kNo ? s.n : s.k;
        const std::vector<float> expected = gemm_oracle(
            ta, tb, s.m, s.n, s.k, a.raw(), lda, b.raw(), ldb);
        for (const std::size_t threads : {1UL, 4UL}) {
          ScopedKernelConfig guard(threads);
          std::vector<float> c(s.m * s.n, -1.0F);
          appfl::tensor::gemm(ta, tb, s.m, s.n, s.k, a.raw(), lda, b.raw(),
                              ldb, c.data());
          std::size_t first_diff = 0;
          while (first_diff < c.size() &&
                 std::memcmp(&c[first_diff], &expected[first_diff],
                             sizeof(float)) == 0) {
            ++first_diff;
          }
          EXPECT_EQ(first_diff, c.size())
              << s.m << "x" << s.n << "x" << s.k << " ta="
              << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes)
              << " threads=" << threads << ": element " << first_diff
              << " is " << c[first_diff] << ", oracle "
              << expected[first_diff];
        }
      }
    }
  }
}

TEST(KernelEngine, TransposeTransposeVariantAgrees) {
  // The (T,T) reference combination has no production caller; pin it here
  // so the driver stays total.
  appfl::rng::Rng r(3);
  const Tensor a = Tensor::randn({7, 5}, r);   // op(A) = Aᵀ: 5×7
  const Tensor b = Tensor::randn({9, 7}, r);   // op(B) = Bᵀ: 7×9
  Tensor c({5, 9});
  appfl::tensor::gemm_reference(appfl::tensor::Trans::kYes,
                                appfl::tensor::Trans::kYes, 5, 9, 7, a.raw(),
                                5, b.raw(), 7, c.raw());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      float acc = 0.0F;
      for (std::size_t p = 0; p < 7; ++p) {
        acc += a.at({p, i}) * b.at({j, p});
      }
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4F);
    }
  }
}

TEST(WorkspaceTest, BuffersGrowOnceAndAreReused) {
  appfl::tensor::Workspace ws;
  float* p1 = ws.floats(appfl::tensor::kWsIm2col, 1024);
  EXPECT_EQ(ws.allocations(), 1U);
  float* p2 = ws.floats(appfl::tensor::kWsIm2col, 512);  // smaller: reuse
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(ws.allocations(), 1U);
  ws.floats(appfl::tensor::kWsIm2col, 4096);  // larger: one grow
  EXPECT_EQ(ws.allocations(), 2U);
  EXPECT_GE(ws.bytes_reserved(), 4096 * sizeof(float));
  ws.release();
  EXPECT_EQ(ws.allocations(), 0U);
  EXPECT_EQ(ws.bytes_reserved(), 0U);
}

TEST(WorkspaceTest, SlotsAreDisjoint) {
  appfl::tensor::Workspace ws;
  float* a = ws.floats(appfl::tensor::kWsPackA, 64);
  float* b = ws.floats(appfl::tensor::kWsPackB, 64);
  EXPECT_NE(a, b);
  a[0] = 1.0F;
  b[0] = 2.0F;
  EXPECT_EQ(ws.floats(appfl::tensor::kWsPackA, 64)[0], 1.0F);
  EXPECT_EQ(ws.floats(appfl::tensor::kWsPackB, 64)[0], 2.0F);
}

TEST(WorkspaceTest, SteadyStateMatmulStopsAllocating) {
  // The amortization claim: after a warm-up call, repeating the same
  // shapes must not grow the calling thread's arena again.
  ScopedKernelConfig guard(1);  // all work on caller
  const Tensor a = big_a(), b = big_b();
  appfl::tensor::matmul(a, b);
  const std::size_t warm = appfl::tensor::Workspace::tls().allocations();
  for (int i = 0; i < 3; ++i) appfl::tensor::matmul(a, b);
  EXPECT_EQ(appfl::tensor::Workspace::tls().allocations(), warm);
}

TEST(WorkspaceTest, RejectsUnknownSlot) {
  appfl::tensor::Workspace ws;
  EXPECT_THROW(ws.floats(appfl::tensor::kWorkspaceSlots, 8), appfl::Error);
}

}  // namespace

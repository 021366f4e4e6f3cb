// Kernel execution engine: one packed, register-tiled GEMM driver behind
// all dense matrix products (matmul / matmul_bt / matmul_at and the im2col
// convolution lowering).
//
// Products of kGemmTinyFlops multiply-adds or more run the tiled path: a
// BLIS-style five-loop GEMM. A and B are packed into contiguous panels (A
// in MR-row panels, B in NR-column panels, zero-padded at the edges), and a
// 6×16 register-tile micro-kernel runs the inner loop. On x86-64 with
// AVX2+FMA, intrinsics micro-kernels are selected at runtime: full tiles
// fuse each multiply into its add, ragged edge tiles multiply then add like
// the portable fixed-tile kernel used elsewhere. Row panels are distributed
// over a shared process-wide kernel ThreadPool; calls arriving from inside
// any pool worker (e.g. the runner's per-client parallel_for) fall back to
// serial execution (see ThreadPool::on_worker_thread) so nested
// parallelism never oversubscribes or deadlocks. Smaller products run the
// reference loops (gemm_reference), where packing would cost more than
// tiling saves; the reference loops also stay callable as the tests'
// oracle.
//
// The thread count comes from the process-wide KernelConfig, seeded from
// the APPFL_KERNEL_THREADS environment variable and settable
// programmatically (RunConfig::kernel_threads, which every FL loop applies
// at its start). Results are bitwise deterministic on a fixed machine
// regardless of thread count: work is split along C's rows, every C element
// is accumulated in the same order by the same micro-kernel no matter which
// thread owns it. Which micro-kernel that is depends on whether the
// element's tile is full, so the contract covers thread count, not tile
// position.
#pragma once

#include <cstddef>
#include <memory>

namespace appfl::util {
class ThreadPool;
}  // namespace appfl::util

namespace appfl::tensor {

/// Largest kernel thread count a KernelConfig may ask for.
inline constexpr std::size_t kMaxKernelThreads = 1024;

struct KernelConfig {
  std::size_t threads = 0;  // 0 = hardware concurrency
};

/// The process default: APPFL_KERNEL_THREADS (0..kMaxKernelThreads,
/// 0 = hardware) over the KernelConfig defaults. An invalid value is warned
/// about and ignored.
KernelConfig kernel_config_from_env();

/// Current process-wide engine configuration. The first call seeds it from
/// kernel_config_from_env().
KernelConfig kernel_config();

void set_kernel_config(const KernelConfig& config);

/// RunConfig-level plumbing: threads 0 keeps the current setting.
void apply_kernel_threads(std::size_t threads);

/// Rows of the tiled GEMM's register tile (its MR). Row panels start at
/// multiples of it, so a product over a block of A's rows that starts at
/// such a multiple computes every element of the block with the same
/// micro-kernel over the same K blocks as the product over all rows, as
/// long as both take the tiled path.
inline constexpr std::size_t kGemmRowTile = 6;

/// Products below this many multiply-adds (m·n·k) run the reference loops:
/// packing and dispatch would cost more than tiling saves (32³ is about a
/// small MLP layer).
inline constexpr std::size_t kGemmTinyFlops = 32 * 32 * 32;

/// Operand transposition for the raw driver. Storage is always row-major;
/// kYes means the logical operand is the transpose of what is stored.
enum class Trans { kNo, kYes };

/// C[m,n] = op(A)·op(B), overwriting C. `lda`/`ldb` are the row strides of
/// the *stored* matrices: op==kNo stores m×k (lda=k-ish), op==kYes stores
/// k×m (lda=m-ish). Tiny products (kGemmTinyFlops) run gemm_reference,
/// the rest gemm_tiled.
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c);

/// The reference loops, callable directly (tests, benchmarks).
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c);

/// The tiled path, callable directly whatever the product's size.
void gemm_tiled(Trans ta, Trans tb, std::size_t m, std::size_t n,
                std::size_t k, const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c);

/// The process-wide kernel ThreadPool, (re)built lazily to the configured
/// size (kernel_config().threads, 0 = hardware concurrency). Shared by the
/// GEMM driver, the conv forward's image groups and the deterministic
/// aggregation reductions so the process never runs more than one set of
/// compute workers. Callers must consult ThreadPool::on_worker_thread()
/// first and fall back to serial execution when already inside a worker.
std::shared_ptr<util::ThreadPool> kernel_pool();

/// Number of row-panel chunks the most recent gemm on the calling thread
/// fanned out (1 = ran serially). Diagnostic for the nested-parallelism
/// tests: inside a pool worker this must stay 1.
std::size_t last_gemm_chunks();

/// True when the selected micro-kernel uses AVX2+FMA intrinsics (runtime
/// CPU dispatch succeeded). Informational — shows up in benchmark output.
bool gemm_uses_avx2();

}  // namespace appfl::tensor

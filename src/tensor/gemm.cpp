#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define APPFL_GEMM_X86 1
#include <immintrin.h>
#else
#define APPFL_GEMM_X86 0
#endif

namespace appfl::tensor {

namespace {

// Register tile and cache blocking. MR×NR is sized for 16 256-bit
// registers (12 accumulators + 2 B vectors + 1 broadcast + spare); KC keeps
// an A panel (MC×KC) plus the active B panel slice in L2; NC bounds the
// packed-B buffer to ~1 MiB of floats at KC=256.
constexpr std::size_t kMr = kGemmRowTile;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 96;   // multiple of kMr
constexpr std::size_t kNc = 1024;  // multiple of kNr

std::mutex g_mutex;
KernelConfig g_config;
bool g_env_loaded = false;
std::shared_ptr<util::ThreadPool> g_pool;  // the shared kernel pool

thread_local std::size_t t_last_chunks = 1;

std::size_t resolved_threads(const KernelConfig& config) {
  if (config.threads > 0) return config.threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// The shared kernel pool, (re)built lazily to the configured size. Only
/// reached from non-worker threads (the oversubscription guard runs
/// first), so resizing cannot pull workers out from under a running gemm
/// on another pool thread; concurrent top-level callers share via the
/// shared_ptr copy.
std::shared_ptr<util::ThreadPool> acquire_pool(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_pool || g_pool->size() != threads) {
    g_pool = std::make_shared<util::ThreadPool>(threads);
  }
  return g_pool;
}

inline float elem_a(const float* a, std::size_t lda, Trans t, std::size_t i,
                    std::size_t p) {
  return t == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

inline float elem_b(const float* b, std::size_t ldb, Trans t, std::size_t p,
                    std::size_t j) {
  return t == Trans::kNo ? b[p * ldb + j] : b[j * ldb + p];
}

// -- Packing ---------------------------------------------------------------

/// Packs one panel of width W: kc steps of W lanes, p-major
/// (panel[p*W + l] = src[l*lane_stride + p*step_stride]), with lanes past
/// `lanes` zero so the micro-kernel never branches on tile size. The
/// operand's Trans only sets the strides, so no loop tests it, or a lane
/// bound, per element.
template <std::size_t W>
void pack_panel(const float* src, std::size_t lane_stride,
                std::size_t step_stride, std::size_t lanes, std::size_t kc,
                float* panel) {
  if (lanes == W && lane_stride == 1) {
    // Each step's lanes are one contiguous run of W floats. A fixed-size
    // memcpy is inlined; std::copy_n may call memmove for every step.
    for (std::size_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * W, src + p * step_stride, W * sizeof(float));
    }
    return;
  }
  if (lanes < W) std::fill(panel, panel + W * kc, 0.0F);
  for (std::size_t l = 0; l < lanes; ++l) {
    const float* lane = src + l * lane_stride;
    for (std::size_t p = 0; p < kc; ++p) {
      panel[p * W + l] = lane[p * step_stride];
    }
  }
}

/// Packs op(A)[ic:ic+mc, pc:pc+kc] into kMr-row panels.
void pack_a(const float* a, std::size_t lda, Trans ta, std::size_t ic,
            std::size_t mc, std::size_t pc, std::size_t kc, float* ap) {
  // op(A)[i, p] = a[i*row + p*col].
  const std::size_t row = ta == Trans::kNo ? lda : 1;
  const std::size_t col = ta == Trans::kNo ? 1 : lda;
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    pack_panel<kMr>(a + (ic + ir) * row + pc * col, row, col,
                    std::min(kMr, mc - ir), kc, ap + (ir / kMr) * kMr * kc);
  }
}

/// Packs op(B)[pc:pc+kc, jc:jc+nc] into kNr-column panels.
void pack_b(const float* b, std::size_t ldb, Trans tb, std::size_t pc,
            std::size_t kc, std::size_t jc, std::size_t nc, float* bp) {
  // op(B)[p, j] = b[p*row + j*col].
  const std::size_t row = tb == Trans::kNo ? ldb : 1;
  const std::size_t col = tb == Trans::kNo ? 1 : ldb;
  for (std::size_t jr = 0; jr < nc; jr += kNr) {
    pack_panel<kNr>(b + pc * row + (jc + jr) * col, col, row,
                    std::min(kNr, nc - jr), kc, bp + (jr / kNr) * kNr * kc);
  }
}

// -- Micro-kernels ---------------------------------------------------------

/// Full-tile kernel type: C[r, c] (op)= Σ_p ap[p*kMr+r] · bp[p*kNr+c] for
/// the full kMr×kNr tile. `overwrite` selects C = acc vs C += acc (the
/// first / later KC blocks).
using MicroKernel = void (*)(std::size_t kc, const float* ap, const float* bp,
                             float* c, std::size_t ldc, bool overwrite);

void micro_kernel_portable(std::size_t kc, const float* ap, const float* bp,
                           float* c, std::size_t ldc, bool overwrite) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMr;
    const float* b = bp + p * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float ar = a[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += ar * b[j];
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    float* cr = c + r * ldc;
    if (overwrite) {
      for (std::size_t j = 0; j < kNr; ++j) cr[j] = acc[r][j];
    } else {
      for (std::size_t j = 0; j < kNr; ++j) cr[j] += acc[r][j];
    }
  }
}

#if APPFL_GEMM_X86
// The AVX2 kernels name their twelve accumulators and spell out the six
// tile rows: -O2 does not unroll a loop over rows, and an accumulator array
// indexed by the loop counter would live on the stack, turning every
// update into a load and a store.

/// C row (op)= [lo hi]: the store for one 16-wide tile row.
__attribute__((target("avx2"), always_inline)) inline void store_row(
    float* cr, __m256 lo, __m256 hi, bool overwrite) {
  if (!overwrite) {
    lo = _mm256_add_ps(_mm256_loadu_ps(cr), lo);
    hi = _mm256_add_ps(_mm256_loadu_ps(cr + 8), hi);
  }
  _mm256_storeu_ps(cr, lo);
  _mm256_storeu_ps(cr + 8, hi);
}

/// Full tiles: one fused multiply-add chain per accumulator, ascending p.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const float* ap, const float* bp, float* c,
    std::size_t ldc, bool overwrite) {
  __m256 lo0 = _mm256_setzero_ps(), hi0 = lo0, lo1 = lo0, hi1 = lo0;
  __m256 lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0, lo4 = lo0, hi4 = lo0;
  __m256 lo5 = lo0, hi5 = lo0;
  for (std::size_t p = 0; p < kc; ++p, ap += kMr, bp += kNr) {
    const __m256 bl = _mm256_loadu_ps(bp);
    const __m256 bh = _mm256_loadu_ps(bp + 8);
    __m256 ar = _mm256_broadcast_ss(ap);
    lo0 = _mm256_fmadd_ps(ar, bl, lo0);
    hi0 = _mm256_fmadd_ps(ar, bh, hi0);
    ar = _mm256_broadcast_ss(ap + 1);
    lo1 = _mm256_fmadd_ps(ar, bl, lo1);
    hi1 = _mm256_fmadd_ps(ar, bh, hi1);
    ar = _mm256_broadcast_ss(ap + 2);
    lo2 = _mm256_fmadd_ps(ar, bl, lo2);
    hi2 = _mm256_fmadd_ps(ar, bh, hi2);
    ar = _mm256_broadcast_ss(ap + 3);
    lo3 = _mm256_fmadd_ps(ar, bl, lo3);
    hi3 = _mm256_fmadd_ps(ar, bh, hi3);
    ar = _mm256_broadcast_ss(ap + 4);
    lo4 = _mm256_fmadd_ps(ar, bl, lo4);
    hi4 = _mm256_fmadd_ps(ar, bh, hi4);
    ar = _mm256_broadcast_ss(ap + 5);
    lo5 = _mm256_fmadd_ps(ar, bl, lo5);
    hi5 = _mm256_fmadd_ps(ar, bh, hi5);
  }
  store_row(c, lo0, hi0, overwrite);
  store_row(c + ldc, lo1, hi1, overwrite);
  store_row(c + 2 * ldc, lo2, hi2, overwrite);
  store_row(c + 3 * ldc, lo3, hi3, overwrite);
  store_row(c + 4 * ldc, lo4, hi4, overwrite);
  store_row(c + 5 * ldc, lo5, hi5, overwrite);
}

/// The AVX2 twin of micro_kernel_portable for edge tiles: the same
/// multiply-then-add per step, so ragged tiles round exactly as the
/// portable kernel does. Built without "fma" so the compiler cannot fuse
/// the multiply into the add.
__attribute__((target("avx2"))) void micro_kernel_portable_avx2(
    std::size_t kc, const float* ap, const float* bp, float* c,
    std::size_t ldc, bool overwrite) {
  __m256 lo0 = _mm256_setzero_ps(), hi0 = lo0, lo1 = lo0, hi1 = lo0;
  __m256 lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0, lo4 = lo0, hi4 = lo0;
  __m256 lo5 = lo0, hi5 = lo0;
  for (std::size_t p = 0; p < kc; ++p, ap += kMr, bp += kNr) {
    const __m256 bl = _mm256_loadu_ps(bp);
    const __m256 bh = _mm256_loadu_ps(bp + 8);
    __m256 ar = _mm256_broadcast_ss(ap);
    lo0 = _mm256_add_ps(lo0, _mm256_mul_ps(ar, bl));
    hi0 = _mm256_add_ps(hi0, _mm256_mul_ps(ar, bh));
    ar = _mm256_broadcast_ss(ap + 1);
    lo1 = _mm256_add_ps(lo1, _mm256_mul_ps(ar, bl));
    hi1 = _mm256_add_ps(hi1, _mm256_mul_ps(ar, bh));
    ar = _mm256_broadcast_ss(ap + 2);
    lo2 = _mm256_add_ps(lo2, _mm256_mul_ps(ar, bl));
    hi2 = _mm256_add_ps(hi2, _mm256_mul_ps(ar, bh));
    ar = _mm256_broadcast_ss(ap + 3);
    lo3 = _mm256_add_ps(lo3, _mm256_mul_ps(ar, bl));
    hi3 = _mm256_add_ps(hi3, _mm256_mul_ps(ar, bh));
    ar = _mm256_broadcast_ss(ap + 4);
    lo4 = _mm256_add_ps(lo4, _mm256_mul_ps(ar, bl));
    hi4 = _mm256_add_ps(hi4, _mm256_mul_ps(ar, bh));
    ar = _mm256_broadcast_ss(ap + 5);
    lo5 = _mm256_add_ps(lo5, _mm256_mul_ps(ar, bl));
    hi5 = _mm256_add_ps(hi5, _mm256_mul_ps(ar, bh));
  }
  store_row(c, lo0, hi0, overwrite);
  store_row(c + ldc, lo1, hi1, overwrite);
  store_row(c + 2 * ldc, lo2, hi2, overwrite);
  store_row(c + 3 * ldc, lo3, hi3, overwrite);
  store_row(c + 4 * ldc, lo4, hi4, overwrite);
  store_row(c + 5 * ldc, lo5, hi5, overwrite);
}
#endif

bool detect_avx2() {
#if APPFL_GEMM_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// The dispatched micro-kernels. Full tiles may fuse multiply and add;
/// edge tiles always round like micro_kernel_portable.
struct TileKernels {
  MicroKernel full;
  MicroKernel edge;
};

const TileKernels& tile_kernels() {
#if APPFL_GEMM_X86
  static const TileKernels kernels =
      detect_avx2()
          ? TileKernels{micro_kernel_avx2, micro_kernel_portable_avx2}
          : TileKernels{micro_kernel_portable, micro_kernel_portable};
#else
  static const TileKernels kernels{micro_kernel_portable,
                                   micro_kernel_portable};
#endif
  return kernels;
}

/// Edge tiles: compute the padded full tile into a stack buffer, then copy
/// the valid mr×nr corner out.
void micro_kernel_edge(MicroKernel kernel, std::size_t kc, const float* ap,
                       const float* bp, std::size_t mr, std::size_t nr,
                       float* c, std::size_t ldc, bool overwrite) {
  float tile[kMr * kNr];
  kernel(kc, ap, bp, tile, kNr, /*overwrite=*/true);
  for (std::size_t r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    const float* tr = tile + r * kNr;
    if (overwrite) {
      for (std::size_t j = 0; j < nr; ++j) cr[j] = tr[j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) cr[j] += tr[j];
    }
  }
}

/// One MC×NC block of C against a packed A block and packed B panel set.
void macro_kernel(std::size_t mc, std::size_t nc, std::size_t kc,
                  const float* ap, const float* bp, float* c, std::size_t ldc,
                  bool overwrite) {
  const TileKernels& kernels = tile_kernels();
  for (std::size_t jr = 0; jr < nc; jr += kNr) {
    const std::size_t nr = std::min(kNr, nc - jr);
    const float* b_panel = bp + (jr / kNr) * kNr * kc;
    for (std::size_t ir = 0; ir < mc; ir += kMr) {
      const std::size_t mr = std::min(kMr, mc - ir);
      const float* a_panel = ap + (ir / kMr) * kMr * kc;
      float* c_tile = c + ir * ldc + jr;
      if (mr == kMr && nr == kNr) {
        kernels.full(kc, a_panel, b_panel, c_tile, ldc, overwrite);
      } else {
        micro_kernel_edge(kernels.edge, kc, a_panel, b_panel, mr, nr, c_tile,
                          ldc, overwrite);
      }
    }
  }
}

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Runs fn(block) for every MC row block, fanning out over the shared
/// kernel pool unless (a) there is nothing to split, (b) the engine is
/// configured serial, or (c) we are already inside a pool worker — the
/// oversubscription guard that makes kernel parallelism compose with the
/// runner's per-client parallel_for.
void run_row_blocks(std::size_t blocks,
                    const std::function<void(std::size_t)>& fn,
                    const KernelConfig& config) {
  const std::size_t threads = resolved_threads(config);
  const bool nested = util::ThreadPool::on_worker_thread();
  if (blocks <= 1 || threads <= 1 || nested) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    t_last_chunks = 1;
    return;
  }
  acquire_pool(threads)->parallel_for(blocks, fn);
  t_last_chunks = blocks;
}

}  // namespace

std::string to_string(KernelBackend backend) {
  return std::string(
      kKernelBackendNames[1 + static_cast<std::size_t>(backend)]);
}

KernelBackend parse_kernel_backend(const std::string& name) {
  const auto i = util::find_name(kKernelBackendNames, name);
  APPFL_CHECK_MSG(i.has_value() && *i > 0,
                  "unknown kernel backend '" << name << "' (expected "
                      << util::join_names(std::span(kKernelBackendNames)
                                              .subspan(1))
                      << ")");
  return static_cast<KernelBackend>(*i - 1);
}

KernelConfig kernel_config_from_env() {
  KernelConfig config;
  const auto backend =
      util::env_choice("APPFL_KERNEL_BACKEND", kKernelBackendNames);
  if (backend && *backend > 0) {
    config.backend = static_cast<KernelBackend>(*backend - 1);
  }
  if (const auto threads =
          util::env_uint("APPFL_KERNEL_THREADS", 0, kMaxKernelThreads)) {
    config.threads = static_cast<std::size_t>(*threads);
  }
  return config;
}

KernelConfig kernel_config() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_env_loaded) {
    g_config = kernel_config_from_env();
    g_env_loaded = true;
  }
  return g_config;
}

void set_kernel_config(const KernelConfig& config) {
  APPFL_CHECK_MSG(config.threads <= kMaxKernelThreads,
                  "kernel threads " << config.threads << " is not sane");
  std::lock_guard<std::mutex> lock(g_mutex);
  g_config = config;
  g_env_loaded = true;
  // The pool is rebuilt lazily at the new size on next use.
}

void apply_kernel_config(const std::string& backend, std::size_t threads) {
  KernelConfig config = kernel_config();
  if (backend != "auto") config.backend = parse_kernel_backend(backend);
  if (threads > 0) config.threads = threads;
  set_kernel_config(config);
}

std::shared_ptr<util::ThreadPool> kernel_pool() {
  return acquire_pool(resolved_threads(kernel_config()));
}

std::size_t last_gemm_chunks() { return t_last_chunks; }

bool gemm_uses_avx2() {
#if APPFL_GEMM_X86
  return tile_kernels().full == micro_kernel_avx2;
#else
  return false;
#endif
}

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c) {
  if (ta == Trans::kNo && tb == Trans::kYes) {
    // Dot-product form: both operand rows are unit-stride.
    for (std::size_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float* ci = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* bj = b + j * ldb;
        float acc = 0.0F;
        for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
        ci[j] = acc;
      }
    }
    return;
  }
  std::fill(c, c + m * n, 0.0F);
  if (ta == Trans::kNo && tb == Trans::kNo) {
    // i-k-j, blocked over k: unit-stride on B and C rows.
    constexpr std::size_t kBlock = 64;
    for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
      const std::size_t p1 = std::min(p0 + kBlock, k);
      for (std::size_t i = 0; i < m; ++i) {
        const float* ai = a + i * lda;
        float* ci = c + i * n;
        for (std::size_t p = p0; p < p1; ++p) {
          const float aip = ai[p];
          const float* bp = b + p * ldb;
          for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
        }
      }
    }
    return;
  }
  if (ta == Trans::kYes && tb == Trans::kNo) {
    // k outermost: rank-1 updates with unit-stride rows.
    for (std::size_t p = 0; p < k; ++p) {
      const float* ap = a + p * lda;
      const float* bp = b + p * ldb;
      for (std::size_t i = 0; i < m; ++i) {
        const float api = ap[i];
        float* ci = c + i * n;
        for (std::size_t j = 0; j < n; ++j) ci[j] += api * bp[j];
      }
    }
    return;
  }
  // (T, T): no current caller; plain accumulation via the accessors.
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) {
      const float api = elem_a(a, lda, ta, i, p);
      float* ci = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] += api * elem_b(b, ldb, tb, p, j);
      }
    }
  }
}

void gemm_tiled(Trans ta, Trans tb, std::size_t m, std::size_t n,
                std::size_t k, const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c) {
  const KernelConfig config = kernel_config();
  Workspace& caller_ws = Workspace::tls();
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t b_panels = ceil_div(nc, kNr);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      // B is packed once per (jc, pc) on the calling thread and shared
      // read-only by all row-block workers.
      float* bp = caller_ws.floats(kWsPackB, b_panels * kNr * kc);
      pack_b(b, ldb, tb, pc, kc, jc, nc, bp);
      const bool overwrite = pc == 0;
      const std::size_t blocks = ceil_div(m, kMc);
      run_row_blocks(
          blocks,
          [&](std::size_t block) {
            const std::size_t ic = block * kMc;
            const std::size_t mc = std::min(kMc, m - ic);
            // Each worker packs A into its own thread-local arena, so pack
            // buffers are allocated once per thread, not once per call.
            float* ap = Workspace::tls().floats(
                kWsPackA, ceil_div(mc, kMr) * kMr * kc);
            pack_a(a, lda, ta, ic, mc, pc, kc, ap);
            macro_kernel(mc, nc, kc, ap, bp, c + ic * n + jc, n, overwrite);
          },
          config);
    }
  }
}

namespace {
// Kernel-time instruments, resolved lazily on the first metered call so a
// metrics-off process never touches the registry.
struct GemmInstruments {
  obs::Counter& calls = obs::MetricsRegistry::global().counter("kernel.gemm_calls");
  obs::Counter& flops = obs::MetricsRegistry::global().counter("kernel.gemm_flops");
  obs::Histogram& seconds =
      obs::MetricsRegistry::global().histogram("kernel.gemm_s", 1e-7, 10.0, 40);
};

GemmInstruments& gemm_instruments() {
  static GemmInstruments* in = new GemmInstruments();  // never destroyed
  return *in;
}
}  // namespace

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c) {
  t_last_chunks = 1;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0F);
    return;
  }
  const bool timed = obs::metrics_on();
  const double t0 = timed ? obs::Tracer::global().now() : 0.0;
  const KernelConfig config = kernel_config();
  if (config.backend == KernelBackend::kReference ||
      m * n * k < kGemmTinyFlops) {
    gemm_reference(ta, tb, m, n, k, a, lda, b, ldb, c);
  } else {
    gemm_tiled(ta, tb, m, n, k, a, lda, b, ldb, c);
  }
  if (timed) {
    GemmInstruments& in = gemm_instruments();
    in.calls.inc();
    in.flops.add(2 * static_cast<std::uint64_t>(m) * n * k);
    in.seconds.record(obs::Tracer::global().now() - t0);
  }
}

}  // namespace appfl::tensor

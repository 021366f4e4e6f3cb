#include "tensor/accumulate.hpp"

#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define APPFL_ACC_X86 1
#include <immintrin.h>
#else
#define APPFL_ACC_X86 0
#endif

namespace appfl::tensor {

namespace {

/// Unaligned little-endian float32 load — compiles to a plain mov.
inline float load_f32(const std::uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}

// -- Scalar kernels (the exact semantics; always available) -----------------

void axpy_scalar(float a, const std::uint8_t* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * load_f32(x + 4 * i);
}

void axpy2_scalar(float a1, const std::uint8_t* x1, float a2,
                  const std::uint8_t* x2, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (y[i] + a1 * load_f32(x1 + 4 * i)) + a2 * load_f32(x2 + 4 * i);
  }
}

void consensus_scalar(float inv_p, float inv_rho, const std::uint8_t* z,
                      const std::uint8_t* l, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += inv_p * (load_f32(z + 4 * i) - inv_rho * load_f32(l + 4 * i));
  }
}

void consensus2_scalar(float inv_p, float inv_rho, const std::uint8_t* z1,
                       const std::uint8_t* l1, const std::uint8_t* z2,
                       const std::uint8_t* l2, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float t1 =
        inv_p * (load_f32(z1 + 4 * i) - inv_rho * load_f32(l1 + 4 * i));
    const float t2 =
        inv_p * (load_f32(z2 + 4 * i) - inv_rho * load_f32(l2 + 4 * i));
    out[i] = (out[i] + t1) + t2;
  }
}

void delta_scalar(double w, const std::uint8_t* z, const float* base,
                  double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] += w * (static_cast<double>(load_f32(z + 4 * i)) -
                   static_cast<double>(base[i]));
  }
}

/// binary16 → float32, bit-for-bit the same mapping as comm::half_to_float
/// (duplicated here because tensor sits below comm in the link order).
inline float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = (std::uint32_t{h} & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  const std::uint32_t mant = h & 0x3FFU;
  std::uint32_t bits;
  if (exp == 0x1FU) {
    bits = sign | 0x7F800000U | (mant << 13);  // inf / NaN
  } else if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {
      // Subnormal half: mant × 2⁻²⁴, exact in float32. Normalizing the
      // mantissa by hand keeps this integer-only (no libm in the kernel).
      std::uint32_t m = mant;
      std::uint32_t e = 113;  // biased float32 exponent of 2⁻¹⁴
      while ((m & 0x400U) == 0) {
        m <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((m & 0x3FFU) << 13);
    }
  } else {
    bits = sign | ((exp + 112U) << 23) | (mant << 13);  // rebias 15 → 127
  }
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

void widen_scalar(const std::uint8_t* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::uint16_t>(
        std::uint16_t{src[2 * i]} | (std::uint16_t{src[2 * i + 1]} << 8));
    dst[i] = half_bits_to_float(h);
  }
}

void dual_scalar(float rho, const float* w, const float* z, float* l,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) l[i] += rho * (w[i] - z[i]);
}

// -- AVX2 kernels -----------------------------------------------------------
//
// Bit-identity rule: every vector op mirrors the scalar expression's own
// operation sequence — separate _mm256_mul_ps / _mm256_add_ps, never
// _mm256_fmadd_ps, because the scalar loops contract nothing. Tails run the
// scalar kernel on the remainder, which performs the identical per-element
// arithmetic.

#if APPFL_ACC_X86

__attribute__((target("avx2"))) void axpy_avx2(float a, const std::uint8_t* x,
                                               float* y, std::size_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv =
        _mm256_loadu_ps(reinterpret_cast<const float*>(x + 4 * i));
    const __m256 yv = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
  }
  axpy_scalar(a, x + 4 * i, y + i, n - i);
}

__attribute__((target("avx2"))) void axpy2_avx2(float a1,
                                                const std::uint8_t* x1,
                                                float a2,
                                                const std::uint8_t* x2,
                                                float* y, std::size_t n) {
  const __m256 a1v = _mm256_set1_ps(a1);
  const __m256 a2v = _mm256_set1_ps(a2);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x1v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(x1 + 4 * i));
    const __m256 x2v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(x2 + 4 * i));
    __m256 yv = _mm256_loadu_ps(y + i);
    yv = _mm256_add_ps(yv, _mm256_mul_ps(a1v, x1v));
    yv = _mm256_add_ps(yv, _mm256_mul_ps(a2v, x2v));
    _mm256_storeu_ps(y + i, yv);
  }
  axpy2_scalar(a1, x1 + 4 * i, a2, x2 + 4 * i, y + i, n - i);
}

__attribute__((target("avx2"))) void consensus_avx2(
    float inv_p, float inv_rho, const std::uint8_t* z, const std::uint8_t* l,
    float* out, std::size_t n) {
  const __m256 pv = _mm256_set1_ps(inv_p);
  const __m256 rv = _mm256_set1_ps(inv_rho);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 zv =
        _mm256_loadu_ps(reinterpret_cast<const float*>(z + 4 * i));
    const __m256 lv =
        _mm256_loadu_ps(reinterpret_cast<const float*>(l + 4 * i));
    const __m256 t = _mm256_sub_ps(zv, _mm256_mul_ps(rv, lv));
    const __m256 ov = _mm256_loadu_ps(out + i);
    _mm256_storeu_ps(out + i, _mm256_add_ps(ov, _mm256_mul_ps(pv, t)));
  }
  consensus_scalar(inv_p, inv_rho, z + 4 * i, l + 4 * i, out + i, n - i);
}

__attribute__((target("avx2"))) void consensus2_avx2(
    float inv_p, float inv_rho, const std::uint8_t* z1, const std::uint8_t* l1,
    const std::uint8_t* z2, const std::uint8_t* l2, float* out, std::size_t n) {
  const __m256 pv = _mm256_set1_ps(inv_p);
  const __m256 rv = _mm256_set1_ps(inv_rho);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 z1v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(z1 + 4 * i));
    const __m256 l1v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(l1 + 4 * i));
    const __m256 z2v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(z2 + 4 * i));
    const __m256 l2v =
        _mm256_loadu_ps(reinterpret_cast<const float*>(l2 + 4 * i));
    const __m256 t1 =
        _mm256_mul_ps(pv, _mm256_sub_ps(z1v, _mm256_mul_ps(rv, l1v)));
    const __m256 t2 =
        _mm256_mul_ps(pv, _mm256_sub_ps(z2v, _mm256_mul_ps(rv, l2v)));
    __m256 ov = _mm256_loadu_ps(out + i);
    ov = _mm256_add_ps(_mm256_add_ps(ov, t1), t2);
    _mm256_storeu_ps(out + i, ov);
  }
  consensus2_scalar(inv_p, inv_rho, z1 + 4 * i, l1 + 4 * i, z2 + 4 * i,
                    l2 + 4 * i, out + i, n - i);
}

__attribute__((target("avx2"))) void delta_avx2(double w,
                                                const std::uint8_t* z,
                                                const float* base, double* out,
                                                std::size_t n) {
  const __m256d wv = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 zf = _mm_loadu_ps(reinterpret_cast<const float*>(z + 4 * i));
    const __m128 bf = _mm_loadu_ps(base + i);
    const __m256d d =
        _mm256_sub_pd(_mm256_cvtps_pd(zf), _mm256_cvtps_pd(bf));
    const __m256d ov = _mm256_loadu_pd(out + i);
    _mm256_storeu_pd(out + i, _mm256_add_pd(ov, _mm256_mul_pd(wv, d)));
  }
  delta_scalar(w, z + 4 * i, base + i, out + i, n - i);
}

// Returns how many values it widened; widen_f16c runs the scalar tail after
// the return, where the compiler clears the upper register halves. A tail
// call from inside the AVX loop's function would skip that vzeroupper and
// leave later SSE code paying transition stalls.
__attribute__((target("avx2,f16c"))) std::size_t widen_f16c_kernel(
    const std::uint8_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i h;
    std::memcpy(&h, src + 2 * i, 16);
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  return i;
}

void widen_f16c(const std::uint8_t* src, float* dst, std::size_t n) {
  const std::size_t i = widen_f16c_kernel(src, dst, n);
  widen_scalar(src + 2 * i, dst + i, n - i);
}

__attribute__((target("avx2"))) void dual_avx2(float rho, const float* w,
                                               const float* z, float* l,
                                               std::size_t n) {
  const __m256 rv = _mm256_set1_ps(rho);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(w + i),
                                   _mm256_loadu_ps(z + i));
    const __m256 lv = _mm256_loadu_ps(l + i);
    _mm256_storeu_ps(l + i, _mm256_add_ps(lv, _mm256_mul_ps(rv, d)));
  }
  dual_scalar(rho, w + i, z + i, l + i, n - i);
}

#endif  // APPFL_ACC_X86

bool detect_acc_avx2() {
#if APPFL_ACC_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_f16c() {
#if APPFL_ACC_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

}  // namespace

void axpy_f32_bytes(float a, const std::uint8_t* x, float* y, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? axpy_avx2 : axpy_scalar;
#else
  static const auto fn = axpy_scalar;
#endif
  fn(a, x, y, n);
}

void axpy2_f32_bytes(float a1, const std::uint8_t* x1, float a2,
                     const std::uint8_t* x2, float* y, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? axpy2_avx2 : axpy2_scalar;
#else
  static const auto fn = axpy2_scalar;
#endif
  fn(a1, x1, a2, x2, y, n);
}

void consensus2_f32_bytes(float inv_p, float inv_rho, const std::uint8_t* z1,
                          const std::uint8_t* l1, const std::uint8_t* z2,
                          const std::uint8_t* l2, float* out, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? consensus2_avx2 : consensus2_scalar;
#else
  static const auto fn = consensus2_scalar;
#endif
  fn(inv_p, inv_rho, z1, l1, z2, l2, out, n);
}

void consensus_f32_bytes(float inv_p, float inv_rho, const std::uint8_t* z,
                         const std::uint8_t* l, float* out, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? consensus_avx2 : consensus_scalar;
#else
  static const auto fn = consensus_scalar;
#endif
  fn(inv_p, inv_rho, z, l, out, n);
}

void delta_f32_bytes(double w, const std::uint8_t* z, const float* base,
                     double* out, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? delta_avx2 : delta_scalar;
#else
  static const auto fn = delta_scalar;
#endif
  fn(w, z, base, out, n);
}

void widen_f16(const std::uint8_t* src, float* dst, std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_f16c() ? widen_f16c : widen_scalar;
#else
  static const auto fn = widen_scalar;
#endif
  fn(src, dst, n);
}

void dual_step(float rho, const float* w, const float* z, float* l,
               std::size_t n) {
#if APPFL_ACC_X86
  static const auto fn = detect_acc_avx2() ? dual_avx2 : dual_scalar;
#else
  static const auto fn = dual_scalar;
#endif
  fn(rho, w, z, l, n);
}

bool accumulate_uses_avx2() { return detect_acc_avx2(); }

}  // namespace appfl::tensor

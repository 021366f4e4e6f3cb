#include "rng/sampling_math.hpp"

#include <cmath>
#include <cstring>

#include "rng/rng.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define APPFL_RNG_X86 1
#include <immintrin.h>
#else
#define APPFL_RNG_X86 0
#endif

namespace appfl::rng::math {

namespace {

// fdlibm coefficients (the hex is each constant's exact bit pattern).
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 3fe62e42 fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 3dea39ef 35793c76
constexpr double kLg1 = 6.666666666666735130e-01;      // 3fe55555 55555593
constexpr double kLg2 = 3.999999999940941908e-01;      // 3fd99999 9997fa04
constexpr double kLg3 = 2.857142874366239149e-01;      // 3fd24924 94229359
constexpr double kLg4 = 2.222219843214978396e-01;      // 3fcc71c5 1d8e78af
constexpr double kLg5 = 1.818357216161805012e-01;      // 3fc74664 96cb03de
constexpr double kLg6 = 1.531383769920937332e-01;      // 3fc39a09 d078c69f
constexpr double kLg7 = 1.479819860511658591e-01;      // 3fc2f112 df3e5244

constexpr double kS1 = -1.66666666666666324348e-01;  // bfc55555 55555549
constexpr double kS2 = 8.33333333332248946124e-03;   // 3f811111 1110f8a6
constexpr double kS3 = -1.98412698298579493134e-04;  // bf2a01a0 19c161d5
constexpr double kS4 = 2.75573137070700676789e-06;   // 3ec71de3 57b1fe7d
constexpr double kS5 = -2.50507602534068634195e-08;  // be5ae5e6 8a2b9ceb
constexpr double kS6 = 1.58969099521155010221e-10;   // 3de5d93a 5acfd57c

constexpr double kC1 = 4.16666666666666019037e-02;   // 3fa55555 5555554c
constexpr double kC2 = -1.38888888888741095749e-03;  // bf56c16c 16c15177
constexpr double kC3 = 2.48015872894767294178e-05;   // 3efa01a0 19cb1590
constexpr double kC4 = -2.75573143513906633035e-07;  // be927e4f 809c52ad
constexpr double kC5 = 2.08757232129817482790e-09;   // 3e21ee9e bdb4b1c4
constexpr double kC6 = -1.13596475577881948265e-11;  // bda8fae9 be8838d4

// log's reduction: adding kLogShift to x's bits carries into the exponent
// exactly when the mantissa is at least √2's, and re-biasing by kLogBias
// then puts 1+f in [√2/2, √2) (x = 2^k·(1+f)).
constexpr std::uint64_t kLogShift =
    0x3FF0000000000000ULL - 0x3FE6A09E00000000ULL;
constexpr std::uint64_t kLogBias = 0x3FE6A09E00000000ULL;
constexpr std::uint64_t kMantissa = 0x000FFFFFFFFFFFFFULL;
// OR-ing a biased exponent e into 2^52's bits gives 2^52 + e; subtracting
// kExpOffset leaves k = e − 1023 exactly.
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;
constexpr double kExpOffset = 0x1.0p52 + 1023.0;

// 2π = kTwoPiHi + kTwoPiLo, and kTwoPiHi = kTwoPiHiHi + kTwoPiHiLo (26-bit
// halves) for the Dekker product.
constexpr double kTwoPiHi = 0x1.921fb54442d18p+2;
constexpr double kTwoPiLo = 0x1.1a62633145c07p-52;
constexpr double kTwoPiHiHi = 0x1.921fb58000000p+2;
constexpr double kTwoPiHiLo = -0x1.dde9740000000p-25;
constexpr double kSplit = 134217729.0;  // 2^27 + 1: Veltkamp split factor
constexpr double kRound = 0x1.0p52;     // x + 2^52 − 2^52 rounds x ∈ [0, 2^51]

inline std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

inline double double_of(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// sin(x + y) for |x + y| ≤ π/4, y a tail below x's last bit (fdlibm).
inline double sin_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * kS1);
}

/// cos(x + y) for |x + y| ≤ π/4 (fdlibm).
inline double cos_kernel(double x, double y) {
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double v = 1.0 - hz;
  return v + (((1.0 - v) - hz) + (z * r - x * y));
}

}  // namespace

double log(double x) {
  const std::uint64_t ix = bits_of(x) + kLogShift;
  const double dk = double_of((ix >> 52) | kTwo52Bits) - kExpOffset;
  const double f = double_of((ix & kMantissa) + kLogBias) - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

void sincos2pi(double u, double& sin_out, double& cos_out) {
  const double t = 4.0 * u + kRound;
  const std::uint64_t q = bits_of(t) & 3;
  const double r = u - 0.25 * (t - kRound);  // exact, |r| ≤ 1/8
  // 2πr = x + y: x = fl(r·2π_hi), y = its rounding error plus r·2π_lo.
  const double c = r * kSplit;
  const double rh = c - (c - r);
  const double rl = r - rh;
  const double x = r * kTwoPiHi;
  const double y = ((((rh * kTwoPiHiHi - x) + rh * kTwoPiHiLo) +
                     rl * kTwoPiHiHi) +
                    rl * kTwoPiHiLo) +
                   r * kTwoPiLo;
  const std::uint64_t s = bits_of(sin_kernel(x, y));
  const std::uint64_t co = bits_of(cos_kernel(x, y));
  // Swap where q is odd; negate sin where bit 1 of q is set and cos where
  // bits 0 and 1 differ. Bit selects and sign-bit XORs, as in the AVX2
  // twin: q is random, so branches here would mispredict half the time.
  const std::uint64_t swap = 0 - (q & 1);
  sin_out = double_of(((s & ~swap) | (co & swap)) ^ ((q >> 1) << 63));
  cos_out = double_of(((co & ~swap) | (s & swap)) ^ ((q ^ (q >> 1)) << 63));
}

void normals_portable(const std::uint64_t* words, float* out, std::size_t n,
                      double stddev) {
  for (std::size_t i = 0; i < n; i += 2) {
    const double u1 = open01_from_word(words[i]);
    const double u2 = open01_from_word(words[i + 1]);
    const double sr = stddev * std::sqrt(-2.0 * log(u1));
    double s, c;
    sincos2pi(u2, s, c);
    out[i] = static_cast<float>(sr * c);
    if (i + 1 < n) out[i + 1] = static_cast<float>(sr * s);
  }
}

void laplaces_portable(const std::uint64_t* words, float* out, std::size_t n,
                       double scale) {
  for (std::size_t i = 0; i < n; ++i) {
    const double u = open01_from_word(words[i]) - 0.5;  // exact, never 0
    const double v = scale * log(1.0 - 2.0 * std::abs(u));
    // u < 0 keeps v, u > 0 negates it: XOR with the complement of u's sign.
    out[i] = static_cast<float>(
        double_of(bits_of(v) ^ (~bits_of(u) & 0x8000000000000000ULL)));
  }
}

// -- AVX2 twins ----------------------------------------------------------
//
// Line for line the portable code above over 4 lanes: the same constants,
// the same operations in the same order, separate _mm256_mul_pd and
// _mm256_add_pd (the "avx2" target does not enable FMA, and this file is
// built with -ffp-contract=off). Tails run the portable functions.

#if APPFL_RNG_X86

namespace {

#define APPFL_AVX2 __attribute__((target("avx2")))

APPFL_AVX2 inline __m256d splat(double x) { return _mm256_set1_pd(x); }

APPFL_AVX2 inline __m256i splat64(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

// Short names so that each expression reads like its portable twin.
APPFL_AVX2 inline __m256d add(__m256d a, __m256d b) {
  return _mm256_add_pd(a, b);
}
APPFL_AVX2 inline __m256d sub(__m256d a, __m256d b) {
  return _mm256_sub_pd(a, b);
}
APPFL_AVX2 inline __m256d mul(__m256d a, __m256d b) {
  return _mm256_mul_pd(a, b);
}
APPFL_AVX2 inline __m256d as_double(__m256i bits) {
  return _mm256_castsi256_pd(bits);
}

APPFL_AVX2 inline __m256d open01_4(__m256i w) {
  const __m256i bits =
      _mm256_or_si256(_mm256_srli_epi64(w, 12), splat64(0x3FF0000000000000ULL));
  return sub(as_double(bits), splat(1.0 - 0x1.0p-53));
}

APPFL_AVX2 inline __m256d log4(__m256d x) {
  const __m256i ix =
      _mm256_add_epi64(_mm256_castpd_si256(x), splat64(kLogShift));
  const __m256i k_bits =
      _mm256_or_si256(_mm256_srli_epi64(ix, 52), splat64(kTwo52Bits));
  const __m256i f_bits = _mm256_add_epi64(
      _mm256_and_si256(ix, splat64(kMantissa)), splat64(kLogBias));
  const __m256d dk = sub(as_double(k_bits), splat(kExpOffset));
  const __m256d f = sub(as_double(f_bits), splat(1.0));
  const __m256d hfsq = mul(mul(splat(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, add(splat(2.0), f));
  const __m256d z = mul(s, s);
  const __m256d w = mul(z, z);
  const __m256d t1 =
      mul(w, add(splat(kLg2), mul(w, add(splat(kLg4), mul(w, splat(kLg6))))));
  const __m256d t2 = mul(
      z, add(splat(kLg1),
             mul(w, add(splat(kLg3),
                        mul(w, add(splat(kLg5), mul(w, splat(kLg7))))))));
  const __m256d r = add(t2, t1);
  return add(add(sub(add(mul(s, add(hfsq, r)), mul(dk, splat(kLn2Lo))), hfsq),
                 f),
             mul(dk, splat(kLn2Hi)));
}

APPFL_AVX2 inline __m256d sin_kernel4(__m256d x, __m256d y) {
  const __m256d z = mul(x, x);
  const __m256d w = mul(z, z);
  const __m256d r =
      add(add(splat(kS2), mul(z, add(splat(kS3), mul(z, splat(kS4))))),
          mul(mul(z, w), add(splat(kS5), mul(z, splat(kS6)))));
  const __m256d v = mul(z, x);
  return sub(x, sub(sub(mul(z, sub(mul(splat(0.5), y), mul(v, r))), y),
                    mul(v, splat(kS1))));
}

APPFL_AVX2 inline __m256d cos_kernel4(__m256d x, __m256d y) {
  const __m256d z = mul(x, x);
  const __m256d w = mul(z, z);
  const __m256d r =
      add(mul(z, add(splat(kC1), mul(z, add(splat(kC2), mul(z, splat(kC3)))))),
          mul(mul(w, w),
              add(splat(kC4), mul(z, add(splat(kC5), mul(z, splat(kC6)))))));
  const __m256d hz = mul(splat(0.5), z);
  const __m256d v = sub(splat(1.0), hz);
  return add(v, add(sub(sub(splat(1.0), v), hz), sub(mul(z, r), mul(x, y))));
}

APPFL_AVX2 inline void sincos2pi4(__m256d u, __m256d& sin_out,
                                  __m256d& cos_out) {
  const __m256d t = add(mul(splat(4.0), u), splat(kRound));
  const __m256i q = _mm256_and_si256(_mm256_castpd_si256(t), splat64(3));
  const __m256d r = sub(u, mul(splat(0.25), sub(t, splat(kRound))));
  const __m256d c = mul(r, splat(kSplit));
  const __m256d rh = sub(c, sub(c, r));
  const __m256d rl = sub(r, rh);
  const __m256d x = mul(r, splat(kTwoPiHi));
  const __m256d y =
      add(add(add(add(sub(mul(rh, splat(kTwoPiHiHi)), x),
                      mul(rh, splat(kTwoPiHiLo))),
                  mul(rl, splat(kTwoPiHiHi))),
              mul(rl, splat(kTwoPiHiLo))),
          mul(r, splat(kTwoPiLo)));
  const __m256d s = sin_kernel4(x, y);
  const __m256d co = cos_kernel4(x, y);
  const __m256d swap = as_double(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, splat64(1)), splat64(1)));
  const __m256i sin_sign = _mm256_slli_epi64(_mm256_srli_epi64(q, 1), 63);
  const __m256i cos_sign =
      _mm256_slli_epi64(_mm256_xor_si256(q, _mm256_srli_epi64(q, 1)), 63);
  sin_out = _mm256_xor_pd(_mm256_blendv_pd(s, co, swap), as_double(sin_sign));
  cos_out = _mm256_xor_pd(_mm256_blendv_pd(co, s, swap), as_double(cos_sign));
}

// The vector loops return how many values they wrote; their callers run the
// portable tail after the return, where the compiler clears the upper
// register halves (a tail call from inside would skip that vzeroupper and
// leave later SSE code, such as libm, paying transition stalls).

APPFL_AVX2 std::size_t normals_kernel(const std::uint64_t* words, float* out,
                                      std::size_t n, double stddev) {
  const __m256d sd = splat(stddev);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Words i..i+7 are pairs 0..3; the unpacks deinterleave them into lanes
    // ordered as pairs (0, 2, 1, 3), and the output unpacks undo that order.
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i + 4));
    const __m256d u1 = open01_4(_mm256_unpacklo_epi64(a, b));
    const __m256d u2 = open01_4(_mm256_unpackhi_epi64(a, b));
    const __m256d sr = mul(sd, _mm256_sqrt_pd(mul(splat(-2.0), log4(u1))));
    __m256d s, c;
    sincos2pi4(u2, s, c);
    const __m256d vc = mul(sr, c);
    const __m256d vs = mul(sr, s);
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_unpacklo_pd(vc, vs)));
    _mm_storeu_ps(out + i + 4, _mm256_cvtpd_ps(_mm256_unpackhi_pd(vc, vs)));
  }
  return i;
}

APPFL_AVX2 std::size_t laplaces_kernel(const std::uint64_t* words,
                                       float* out, std::size_t n,
                                       double scale) {
  const __m256d sc = splat(scale);
  const __m256d sign = splat(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = sub(open01_4(_mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(words + i))),
                          splat(0.5));
    const __m256d au = _mm256_andnot_pd(sign, u);
    const __m256d v = mul(sc, log4(sub(splat(1.0), mul(splat(2.0), au))));
    const __m256d x = _mm256_xor_pd(v, _mm256_andnot_pd(u, sign));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(x));
  }
  return i;
}

APPFL_AVX2 std::size_t log_kernel(const double* x, double* out,
                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, log4(_mm256_loadu_pd(x + i)));
  }
  return i;
}

APPFL_AVX2 std::size_t sincos2pi_kernel(const double* u, double* sin_out,
                                         double* cos_out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s, c;
    sincos2pi4(_mm256_loadu_pd(u + i), s, c);
    _mm256_storeu_pd(sin_out + i, s);
    _mm256_storeu_pd(cos_out + i, c);
  }
  return i;
}

#undef APPFL_AVX2

}  // namespace

void log_avx2(const double* x, double* out, std::size_t n) {
  for (std::size_t i = log_kernel(x, out, n); i < n; ++i) out[i] = log(x[i]);
}

void sincos2pi_avx2(const double* u, double* sin_out, double* cos_out,
                    std::size_t n) {
  for (std::size_t i = sincos2pi_kernel(u, sin_out, cos_out, n); i < n; ++i) {
    sincos2pi(u[i], sin_out[i], cos_out[i]);
  }
}

void normals_avx2(const std::uint64_t* words, float* out, std::size_t n,
                  double stddev) {
  const std::size_t i = normals_kernel(words, out, n, stddev);
  normals_portable(words + i, out + i, n - i, stddev);
}

void laplaces_avx2(const std::uint64_t* words, float* out, std::size_t n,
                   double scale) {
  const std::size_t i = laplaces_kernel(words, out, n, scale);
  laplaces_portable(words + i, out + i, n - i, scale);
}

bool avx2_available() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#else  // !APPFL_RNG_X86

bool avx2_available() { return false; }

void log_avx2(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = log(x[i]);
}

void sincos2pi_avx2(const double* u, double* sin_out, double* cos_out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) sincos2pi(u[i], sin_out[i], cos_out[i]);
}

void normals_avx2(const std::uint64_t* words, float* out, std::size_t n,
                  double stddev) {
  normals_portable(words, out, n, stddev);
}

void laplaces_avx2(const std::uint64_t* words, float* out, std::size_t n,
                   double scale) {
  laplaces_portable(words, out, n, scale);
}

#endif  // APPFL_RNG_X86

}  // namespace appfl::rng::math

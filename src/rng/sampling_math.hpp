// The math behind every normal and Laplace draw: one log, one sincos(2πu),
// and the word-block samplers built on them.
//
// Each is written twice, as tensor/accumulate's kernels are: a portable
// scalar function defines the result, and an AVX2 twin over 4 doubles
// performs the same IEEE operations in the same order — separate multiply
// and add, never FMA, and sampling_math.cpp is compiled with
// -ffp-contract=off so that no build flag can fuse the scalar twin. A
// sample's bits are then a function of its words alone: they depend neither
// on the host's libm nor on whether AVX2 is present. The batched samplers
// pick their path once at runtime; tests call both twins directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace appfl::rng::math {

/// Natural log of a positive normal double, portable. Branch-free fdlibm
/// reduction (x = 2^k·(1+f), 1+f in [√2/2, √2)) and its atanh series in
/// s = f/(2+f): one division, error below 1 ulp.
double log(double x);

/// sin(2πu) and cos(2πu) for u in [0, 1], portable. Reduces the turn
/// fraction, not the angle: q = nearest(4u) and r = u − q/4 are exact, 2πr
/// lies in [−π/4, π/4] and is formed as a double-double (Dekker product
/// with 2π split hi + lo), and the fdlibm sin/cos kernels of it are swapped
/// and negated by q mod 4. Error below 1 ulp.
void sincos2pi(double u, double& sin_out, double& cos_out);

/// Box–Muller over words: pair k takes u1 = open01_from_word(words[2k]) and
/// u2 = open01_from_word(words[2k+1]), and writes
/// out[2k] = (stddev·√(−2·ln u1))·cos(2πu2) and out[2k+1] the same with sin.
/// Reads 2⌈n/2⌉ words; for odd n the last pair's sine is dropped.
void normals_portable(const std::uint64_t* words, float* out, std::size_t n,
                      double stddev);

/// Laplace(0, scale) by inverse CDF, one word per value:
/// u = open01_from_word(words[i]) − ½, out[i] = −sgn(u)·scale·ln(1 − 2|u|).
/// The log's argument lies in [2⁻⁵², 1 − 2⁻⁵²], so every value is finite.
void laplaces_portable(const std::uint64_t* words, float* out, std::size_t n,
                       double scale);

/// True when this CPU runs the AVX2 twins; the batched samplers then use
/// them.
bool avx2_available();

/// The AVX2 twins: bit-identical to the portable functions above. Call them
/// only when avx2_available().
void normals_avx2(const std::uint64_t* words, float* out, std::size_t n,
                  double stddev);
void laplaces_avx2(const std::uint64_t* words, float* out, std::size_t n,
                   double scale);

/// The AVX2 log and sincos2pi over arrays. The samplers round to float,
/// which hides a last-bit difference between the double twins almost
/// always; tests compare these against log() and sincos2pi() directly.
void log_avx2(const double* x, double* out, std::size_t n);
void sincos2pi_avx2(const double* u, double* sin_out, double* cos_out,
                    std::size_t n);

}  // namespace appfl::rng::math

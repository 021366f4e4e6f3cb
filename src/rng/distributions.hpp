// Distributions over appfl::rng::Rng. All are stateless free functions so
// callers can interleave draws from several distributions on one stream.
//
// normal and laplace, scalar and batched, evaluate through the sampling
// math of rng/sampling_math.hpp (no libm); lognormal is the last draw that
// calls libm (its exp).
#pragma once

#include <cstddef>
#include <span>

#include "rng/rng.hpp"

namespace appfl::rng {

/// Uniform real in [lo, hi).
double uniform(Rng& rng, double lo, double hi);

/// Normal via the Box–Muller transform: two words per call, the cosine
/// output only (the sine is discarded to keep the function stateless).
/// mean + fill_normal's first value, before the cast to float.
double normal(Rng& rng, double mean = 0.0, double stddev = 1.0);

/// Laplace(mean, scale b): density (1/2b)·exp(−|x−mean|/b). This is the DP
/// output-perturbation noise of the paper (§III-B); sampled by inverse CDF
/// from one word per call. mean + fill_laplace's first value, before the
/// cast to float.
double laplace(Rng& rng, double mean, double scale);

/// Log-normal: exp(normal(mu, sigma)). Used for gRPC traffic jitter.
double lognormal(Rng& rng, double mu, double sigma);

/// Bernoulli(p) — true with probability p.
bool bernoulli(Rng& rng, double p);

/// Fisher–Yates shuffle of an index container.
template <typename T>
void shuffle(Rng& rng, std::span<T> values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_below(i);
    std::swap(values[i - 1], values[j]);
  }
}

/// Fills `out` with i.i.d. Laplace(0, scale) noise, one word per value.
void fill_laplace(Rng& rng, std::span<float> out, double scale);

/// Fills `out` with i.i.d. Normal(0, stddev) noise. Box–Muller uses both
/// outputs: words 2k and 2k+1 give out[2k] (cosine) and out[2k+1] (sine),
/// so 2⌈n/2⌉ words are drawn and two fills of even length equal one fill of
/// their joint length.
void fill_normal(Rng& rng, std::span<float> out, double stddev);

/// values[i] += the i-th value fill_laplace would write; no heap temporary.
void add_laplace(Rng& rng, std::span<float> values, double scale);

/// values[i] += the i-th value fill_normal would write; no heap temporary.
void add_normal(Rng& rng, std::span<float> values, double stddev);

}  // namespace appfl::rng

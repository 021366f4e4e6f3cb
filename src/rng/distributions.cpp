#include "rng/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "rng/sampling_math.hpp"
#include "util/check.hpp"

namespace appfl::rng {

double uniform(Rng& rng, double lo, double hi) {
  APPFL_CHECK(lo <= hi);
  return lo + (hi - lo) * rng.uniform01();
}

double normal(Rng& rng, double mean, double stddev) {
  // The first pair of math::normals_portable, plus the mean.
  const double u1 = rng.uniform01_open();
  const double u2 = rng.uniform01_open();
  double s, c;
  math::sincos2pi(u2, s, c);
  return mean + stddev * std::sqrt(-2.0 * math::log(u1)) * c;
}

double laplace(Rng& rng, double mean, double scale) {
  APPFL_CHECK(scale > 0.0);
  // math::laplaces_portable's inverse CDF, plus the mean.
  const double u = rng.uniform01_open() - 0.5;
  const double v = scale * math::log(1.0 - 2.0 * std::abs(u));
  return mean + (u < 0.0 ? v : -v);
}

double lognormal(Rng& rng, double mu, double sigma) {
  return std::exp(normal(rng, mu, sigma));
}

bool bernoulli(Rng& rng, double p) { return rng.uniform01() < p; }

namespace {

using WordSampler = void (*)(const std::uint64_t*, float*, std::size_t,
                             double);

/// Values per block. Even, so that blocks never split a Box–Muller pair.
constexpr std::size_t kBlock = 256;

/// Draws values.size() samples in blocks: each block takes its words from
/// rng (2⌈m/2⌉ for m normals, m for m Laplace values), then `sampler`
/// writes the block into `values` or, with `add`, adds it to them.
void sample_blocks(Rng& rng, std::span<float> values, double param,
                   WordSampler sampler, bool pairs, bool add) {
  std::uint64_t words[kBlock];
  float noise[kBlock];
  for (std::size_t i = 0; i < values.size(); i += kBlock) {
    const std::size_t m = std::min(kBlock, values.size() - i);
    rng.fill_words({words, pairs ? m + (m & 1) : m});
    float* dst = values.data() + i;
    sampler(words, add ? noise : dst, m, param);
    if (add) {
      for (std::size_t j = 0; j < m; ++j) dst[j] += noise[j];
    }
  }
}

WordSampler normal_sampler() {
  static const WordSampler fn =
      math::avx2_available() ? math::normals_avx2 : math::normals_portable;
  return fn;
}

WordSampler laplace_sampler() {
  static const WordSampler fn =
      math::avx2_available() ? math::laplaces_avx2 : math::laplaces_portable;
  return fn;
}

}  // namespace

void fill_laplace(Rng& rng, std::span<float> out, double scale) {
  APPFL_CHECK(scale > 0.0);
  sample_blocks(rng, out, scale, laplace_sampler(), /*pairs=*/false,
                /*add=*/false);
}

void fill_normal(Rng& rng, std::span<float> out, double stddev) {
  sample_blocks(rng, out, stddev, normal_sampler(), /*pairs=*/true,
                /*add=*/false);
}

void add_laplace(Rng& rng, std::span<float> values, double scale) {
  APPFL_CHECK(scale > 0.0);
  sample_blocks(rng, values, scale, laplace_sampler(), /*pairs=*/false,
                /*add=*/true);
}

void add_normal(Rng& rng, std::span<float> values, double stddev) {
  sample_blocks(rng, values, stddev, normal_sampler(), /*pairs=*/true,
                /*add=*/true);
}

}  // namespace appfl::rng

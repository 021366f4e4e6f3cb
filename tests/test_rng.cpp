// Unit + statistical tests for the RNG substrate. Statistical assertions use
// wide tolerances (5+ sigma) so they are deterministic in practice.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "rng/sampling_math.hpp"

namespace {

using appfl::rng::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01OpenNeverZero) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.uniform01_open(), 0.0);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all residues hit
}

TEST(Rng, UniformBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_below(1), 0U);
}

TEST(Rng, UniformBelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.uniform_below(0), appfl::Error);
}

TEST(DeriveSeed, DistinctIdTuplesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(appfl::rng::derive_seed(1, {a, b}));
    }
  }
  EXPECT_EQ(seeds.size(), 100U);
}

TEST(DeriveSeed, DeterministicAcrossCalls) {
  EXPECT_EQ(appfl::rng::derive_seed(5, {1, 2, 3}),
            appfl::rng::derive_seed(5, {1, 2, 3}));
  EXPECT_NE(appfl::rng::derive_seed(5, {1, 2, 3}),
            appfl::rng::derive_seed(6, {1, 2, 3}));
}

// -- Distribution moments -----------------------------------------------------

struct MomentCase {
  const char* name;
  double expected_mean;
  double expected_var;
  double (*draw)(Rng&);
};

class MomentTest : public testing::TestWithParam<MomentCase> {};

TEST_P(MomentTest, MatchesTheoreticalMoments) {
  const auto& c = GetParam();
  Rng r(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = c.draw(r);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // Standard error of the mean ~ sqrt(var/n); allow ~6 SE.
  const double se = std::sqrt(c.expected_var / n);
  EXPECT_NEAR(mean, c.expected_mean, 6.0 * se) << c.name;
  EXPECT_NEAR(var, c.expected_var, 0.08 * c.expected_var + 6.0 * se) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, MomentTest,
    testing::Values(
        MomentCase{"normal(0,1)", 0.0, 1.0,
                   [](Rng& r) { return appfl::rng::normal(r, 0.0, 1.0); }},
        MomentCase{"normal(3,2)", 3.0, 4.0,
                   [](Rng& r) { return appfl::rng::normal(r, 3.0, 2.0); }},
        MomentCase{"laplace(0,1)", 0.0, 2.0,
                   [](Rng& r) { return appfl::rng::laplace(r, 0.0, 1.0); }},
        MomentCase{"laplace(1,0.5)", 1.0, 0.5,
                   [](Rng& r) { return appfl::rng::laplace(r, 1.0, 0.5); }},
        MomentCase{"uniform(2,4)", 3.0, 1.0 / 3.0,
                   [](Rng& r) { return appfl::rng::uniform(r, 2.0, 4.0); }}),
    [](const testing::TestParamInfo<MomentCase>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

TEST(Laplace, EmpiricalDensityIsHeavierTailedThanNormal) {
  // P(|X| > 3b) = exp(−3) ≈ 4.98% for Laplace(0, b).
  Rng r(13);
  int outliers = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(appfl::rng::laplace(r, 0.0, 1.0)) > 3.0) ++outliers;
  }
  EXPECT_NEAR(static_cast<double>(outliers) / n, std::exp(-3.0), 0.01);
}

TEST(Lognormal, MedianIsExpMu) {
  Rng r(17);
  std::vector<double> v(20001);
  for (auto& x : v) x = appfl::rng::lognormal(r, 1.0, 0.5);
  std::nth_element(v.begin(), v.begin() + 10000, v.end());
  EXPECT_NEAR(v[10000], std::exp(1.0), 0.1);
}

TEST(Shuffle, ProducesAPermutation) {
  Rng r(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  appfl::rng::shuffle(r, std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, IsNotIdentityOnAverage) {
  Rng r(37);
  int moved = 0;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    appfl::rng::shuffle(r, std::span<int>(v));
    for (int i = 0; i < 8; ++i) {
      if (v[i] != i) ++moved;
    }
  }
  EXPECT_GT(moved, 80);  // E[moved] = 20·8·(7/8) = 140
}

TEST(FillHelpers, FillLaplaceAndNormalHaveRightScale) {
  Rng r(41);
  std::vector<float> buf(100000);
  appfl::rng::fill_laplace(r, buf, 2.0);
  double sum2 = 0.0;
  for (float x : buf) sum2 += static_cast<double>(x) * x;
  EXPECT_NEAR(sum2 / buf.size(), 2.0 * 2.0 * 2.0, 0.5);  // var = 2b²

  appfl::rng::fill_normal(r, buf, 3.0);
  sum2 = 0.0;
  for (float x : buf) sum2 += static_cast<double>(x) * x;
  EXPECT_NEAR(sum2 / buf.size(), 9.0, 0.5);
}

TEST(Bernoulli, FrequencyMatchesP) {
  Rng r(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (appfl::rng::bernoulli(r, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// -- Sampling math ---------------------------------------------------------

namespace math = appfl::rng::math;

/// Inverse of an odd number modulo 2⁶⁴ (Newton: each step doubles the
/// correct low bits).
std::uint64_t inverse_mod64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// A state whose next() returns `word`: xoshiro256** outputs
/// rotl(s1·5, 7)·9, so s1 = rotr(word·9⁻¹, 7)·5⁻¹.
Rng rng_whose_next_is(std::uint64_t word) {
  const std::uint64_t a = word * inverse_mod64(9);
  const std::uint64_t s1 = ((a >> 7) | (a << 57)) * inverse_mod64(5);
  Rng r;
  r.set_state({1, s1, 2, 3});
  return r;
}

TEST(SamplingMath, ExtremeWordsGiveFiniteSamples) {
  for (const std::uint64_t word : {~std::uint64_t{0}, std::uint64_t{0}}) {
    SCOPED_TRACE(word);
    {
      Rng r = rng_whose_next_is(word);
      Rng copy = r;
      EXPECT_EQ(copy.next(), word);
      const double u = r.uniform01_open();
      EXPECT_GT(u, 0.0);
      EXPECT_LT(u, 1.0);
    }
    {
      Rng r = rng_whose_next_is(word);
      EXPECT_TRUE(std::isfinite(appfl::rng::laplace(r, 0.0, 1.0)));
    }
    {
      Rng r = rng_whose_next_is(word);
      EXPECT_TRUE(std::isfinite(appfl::rng::normal(r, 0.0, 1.0)));
    }
    for (const std::size_t n : {1, 9}) {
      std::vector<float> lap(n), nrm(n);
      Rng a = rng_whose_next_is(word);
      appfl::rng::fill_laplace(a, lap, 1.0);
      Rng b = rng_whose_next_is(word);
      appfl::rng::fill_normal(b, nrm, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(std::isfinite(lap[i])) << i;
        EXPECT_TRUE(std::isfinite(nrm[i])) << i;
      }
    }
  }
  // The tails the grid allows: |x| ≤ 52·ln 2 for Laplace(0, 1), and
  // √(−2·ln 2⁻⁵³) for the Box–Muller radius.
  std::uint64_t w[2] = {0, 0};
  float x[2];
  math::laplaces_portable(w, x, 1, 1.0);
  EXPECT_NEAR(std::abs(x[0]), 52.0 * std::log(2.0), 1e-5);
  math::normals_portable(w, x, 2, 1.0);
  EXPECT_NEAR(std::hypot(x[0], x[1]), std::sqrt(106.0 * std::log(2.0)), 1e-5);
}

TEST(SamplingMath, Open01MappingIsTheExactGridStrictlyInsideTheUnitInterval) {
  EXPECT_EQ(appfl::rng::open01_from_word(0), 0x1.0p-53);
  EXPECT_EQ(appfl::rng::open01_from_word(~std::uint64_t{0}), 1.0 - 0x1.0p-53);
  Rng r(5);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t w = r.next();
    EXPECT_EQ(appfl::rng::open01_from_word(w),
              (static_cast<double>(w >> 12) + 0.5) * 0x1.0p-52);
  }
}

TEST(SamplingMath, FillWordsMatchesRepeatedNext) {
  Rng a(77), b(77);
  std::vector<std::uint64_t> words(1001);
  a.fill_words(words);
  for (const std::uint64_t w : words) EXPECT_EQ(w, b.next());
  EXPECT_EQ(a.state(), b.state());
}

/// Words every kernel test runs on: a seeded stream with the extreme words,
/// the words whose u sits on or next to a multiple of 1/8 (the sincos
/// quadrant boundaries) and the Laplace midpoint spliced in.
std::vector<std::uint64_t> test_words(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> w(n);
  Rng r(seed);
  r.fill_words(w);
  std::vector<std::uint64_t> special = {0, ~std::uint64_t{0}, 1ULL << 12,
                                        ~std::uint64_t{0} << 12};
  for (std::uint64_t k = 1; k < 8; ++k) {
    const std::uint64_t m = k << 49;  // u = (m + 0.5)·2⁻⁵² ≈ k/8
    for (const std::uint64_t d : {m - 2, m - 1, m, m + 1}) {
      special.push_back(d << 12);
    }
  }
  for (std::size_t i = 0; i < special.size() && i < n; ++i) {
    w[(i * 7919) % n] = special[i];
  }
  return w;
}

TEST(SamplingMath, Avx2TwinMatchesPortableBitForBit) {
  if (!math::avx2_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  constexpr std::size_t kChunk = 1 << 20;
  std::vector<float> portable(kChunk), avx2(kChunk);
  std::vector<double> x(kChunk), want(kChunk), got(kChunk), want_c(kChunk),
      got_c(kChunk);
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (std::uint64_t chunk = 0; chunk < 10; ++chunk) {
    const auto words = test_words(kChunk, 1000 + chunk);
    // The double kernels first: the samplers' float outputs would hide a
    // last-bit difference between them.
    for (std::size_t i = 0; i < kChunk; ++i) {
      x[i] = appfl::rng::open01_from_word(words[i]);
      math::sincos2pi(x[i], want[i], want_c[i]);
    }
    math::sincos2pi_avx2(x.data(), got.data(), got_c.data(), kChunk);
    ASSERT_TRUE(same(want, got) && same(want_c, got_c))
        << "sincos2pi, chunk " << chunk;
    for (std::size_t i = 0; i < kChunk; ++i) {
      // Alternate the Box–Muller argument u and the Laplace one 1 − 2|u − ½|.
      if (i & 1) x[i] = 1.0 - 2.0 * std::abs(x[i] - 0.5);
      want[i] = math::log(x[i]);
    }
    math::log_avx2(x.data(), got.data(), kChunk);
    ASSERT_TRUE(same(want, got)) << "log, chunk " << chunk;

    math::normals_portable(words.data(), portable.data(), kChunk, 1.7);
    math::normals_avx2(words.data(), avx2.data(), kChunk, 1.7);
    ASSERT_EQ(std::memcmp(portable.data(), avx2.data(), kChunk * sizeof(float)),
              0)
        << "normals, chunk " << chunk;
    math::laplaces_portable(words.data(), portable.data(), kChunk, 0.3);
    math::laplaces_avx2(words.data(), avx2.data(), kChunk, 0.3);
    ASSERT_EQ(std::memcmp(portable.data(), avx2.data(), kChunk * sizeof(float)),
              0)
        << "laplaces, chunk " << chunk;
  }
}

TEST(SamplingMath, Avx2TwinMatchesPortableAtEveryTailLength) {
  if (!math::avx2_available()) GTEST_SKIP() << "no AVX2 on this CPU";
  const auto words = test_words(68, 9);
  std::vector<double> u(68);
  for (std::size_t i = 0; i < 68; ++i) {
    u[i] = appfl::rng::open01_from_word(words[i]);
  }
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<double> want(n + 1, 7.0), want_s(n + 1, 7.0),
        want_c(n + 1, 7.0), l(n + 1, 7.0), s(n + 1, 7.0), c(n + 1, 7.0);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = math::log(u[i]);
      math::sincos2pi(u[i], want_s[i], want_c[i]);
    }
    math::log_avx2(u.data(), l.data(), n);
    math::sincos2pi_avx2(u.data(), s.data(), c.data(), n);
    EXPECT_EQ(std::memcmp(want.data(), l.data(), (n + 1) * 8), 0) << n;
    EXPECT_EQ(std::memcmp(want_s.data(), s.data(), (n + 1) * 8), 0) << n;
    EXPECT_EQ(std::memcmp(want_c.data(), c.data(), (n + 1) * 8), 0) << n;
  }
  for (std::size_t n = 0; n <= 67; ++n) {
    // One guard float past the end: neither twin may write beyond n.
    std::vector<float> portable(n + 1, 7.0F), avx2(n + 1, 7.0F);
    math::normals_portable(words.data(), portable.data(), n, 2.0);
    math::normals_avx2(words.data(), avx2.data(), n, 2.0);
    EXPECT_EQ(std::memcmp(portable.data(), avx2.data(), (n + 1) * 4), 0)
        << "normals n=" << n;
    EXPECT_EQ(avx2[n], 7.0F);
    math::laplaces_portable(words.data(), portable.data(), n, 2.0);
    math::laplaces_avx2(words.data(), avx2.data(), n, 2.0);
    EXPECT_EQ(std::memcmp(portable.data(), avx2.data(), (n + 1) * 4), 0)
        << "laplaces n=" << n;
    EXPECT_EQ(avx2[n], 7.0F);
  }
}

/// The number of next() calls that took `before` to `after` (at most 4096).
std::size_t words_used(Rng before, const Rng& after) {
  for (std::size_t k = 0; k <= 4096; ++k) {
    if (before.state() == after.state()) return k;
    before.next();
  }
  return ~std::size_t{0};
}

TEST(SamplingMath, WordAccounting) {
  for (const std::size_t n :
       {0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 511, 512, 513, 1001}) {
    SCOPED_TRACE(n);
    std::vector<float> buf(n, 1.0F);
    const Rng start(123);
    Rng r = start;
    appfl::rng::fill_normal(r, buf, 1.0);
    EXPECT_EQ(words_used(start, r), 2 * ((n + 1) / 2));
    r = start;
    appfl::rng::add_normal(r, buf, 1.0);
    EXPECT_EQ(words_used(start, r), 2 * ((n + 1) / 2));
    r = start;
    appfl::rng::fill_laplace(r, buf, 1.0);
    EXPECT_EQ(words_used(start, r), n);
    r = start;
    appfl::rng::add_laplace(r, buf, 1.0);
    EXPECT_EQ(words_used(start, r), n);
  }
  const Rng start(321);
  Rng r = start;
  appfl::rng::normal(r);
  EXPECT_EQ(words_used(start, r), 2U);
  r = start;
  appfl::rng::laplace(r, 0.0, 1.0);
  EXPECT_EQ(words_used(start, r), 1U);
}

TEST(SamplingMath, ScalarDrawsEqualLengthOneFills) {
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    Rng a(seed), b(seed);
    float x = 0.0F;
    appfl::rng::fill_normal(a, {&x, 1}, 1.5);
    ASSERT_EQ(x, static_cast<float>(appfl::rng::normal(b, 0.0, 1.5)));
    appfl::rng::fill_laplace(a, {&x, 1}, 0.5);
    ASSERT_EQ(x, static_cast<float>(appfl::rng::laplace(b, 0.0, 0.5)));
    EXPECT_EQ(a.state(), b.state());
  }
}

TEST(SamplingMath, SplitFillsEqualOneJointFill) {
  // Even first parts keep the Box–Muller pairs whole, also across blocks.
  for (const auto& [first, second] :
       {std::pair<std::size_t, std::size_t>{2, 5}, {100, 412}, {256, 256},
        {300, 57}, {1024, 3}}) {
    std::vector<float> joint(first + second), split(first + second);
    Rng a(55), b(55);
    appfl::rng::fill_normal(a, joint, 0.7);
    appfl::rng::fill_normal(b, {split.data(), first}, 0.7);
    appfl::rng::fill_normal(b, {split.data() + first, second}, 0.7);
    EXPECT_EQ(joint, split) << first << "+" << second;
    EXPECT_EQ(a.state(), b.state());
  }
}

TEST(SamplingMath, AddFormsAddTheFilledNoise) {
  std::vector<float> base(777);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = 0.01F * i;
  for (const bool laplace : {false, true}) {
    std::vector<float> noise(base.size()), added = base;
    Rng a(8), b(8);
    if (laplace) {
      appfl::rng::fill_laplace(a, noise, 0.25);
      appfl::rng::add_laplace(b, added, 0.25);
    } else {
      appfl::rng::fill_normal(a, noise, 0.25);
      appfl::rng::add_normal(b, added, 0.25);
    }
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(added[i], base[i] + noise[i]) << i;
    }
  }
}

/// Kolmogorov–Smirnov distance of `xs` from the CDF `cdf`, evaluated on a
/// histogram of cdf(x) with 2²⁰ equal-probability bins (exact up to 2⁻²⁰,
/// far below the 10⁻⁴ scale of the test) so no 10⁷-element sort is needed.
template <typename Cdf>
double ks_distance(const std::vector<float>& xs, Cdf cdf) {
  constexpr std::size_t kBins = 1 << 20;
  std::vector<std::uint32_t> hist(kBins, 0);
  for (const float x : xs) {
    const double p = cdf(static_cast<double>(x));
    ++hist[std::min(kBins - 1, static_cast<std::size_t>(p * kBins))];
  }
  double d = 0.0;
  std::size_t below = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    below += hist[b];
    const double edge = static_cast<double>(b + 1) / kBins;
    d = std::max(d, std::abs(static_cast<double>(below) / xs.size() - edge));
  }
  return d + 1.0 / kBins;
}

struct Moments {
  double mean, var, kurtosis;
};

Moments moments(const std::vector<float>& xs) {
  double s1 = 0.0;
  for (const float x : xs) s1 += x;
  const double mean = s1 / xs.size();
  double m2 = 0.0, m4 = 0.0;
  for (const float x : xs) {
    const double d = x - mean;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= xs.size();
  m4 /= xs.size();
  return {mean, m2, m4 / (m2 * m2)};
}

constexpr std::size_t kDraws = 10'000'000;

TEST(SamplingMath, NormalMomentsAndKolmogorovSmirnov) {
  std::vector<float> xs(kDraws);
  Rng r(2024);
  appfl::rng::fill_normal(r, xs, 1.0);
  const Moments m = moments(xs);
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(m.mean, 0.0, 6.0 / std::sqrt(n));
  EXPECT_NEAR(m.var, 1.0, 6.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m.kurtosis, 3.0, 6.0 * std::sqrt(24.0 / n));
  const double d = ks_distance(
      xs, [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); });
  // 1.95/√n is the KS critical value at α = 0.001.
  EXPECT_LT(d, 1.95 / std::sqrt(n)) << "KS distance " << d;
}

TEST(SamplingMath, LaplaceMomentsKolmogorovSmirnovAndTails) {
  std::vector<float> xs(kDraws);
  Rng r(2025);
  const double b = 1.5;
  appfl::rng::fill_laplace(r, xs, b);
  const Moments m = moments(xs);
  const double n = static_cast<double>(kDraws);
  // Var = 2b², excess kurtosis 3; Var(sample var) = (24 − 4)·b⁴/n.
  EXPECT_NEAR(m.mean, 0.0, 6.0 * std::sqrt(2.0 * b * b / n));
  EXPECT_NEAR(m.var, 2.0 * b * b, 6.0 * std::sqrt(20.0 / n) * b * b);
  EXPECT_NEAR(m.kurtosis, 6.0, 0.1);
  const double d = ks_distance(xs, [b](double x) {
    return x < 0.0 ? 0.5 * std::exp(x / b) : 1.0 - 0.5 * std::exp(-x / b);
  });
  EXPECT_LT(d, 1.95 / std::sqrt(n)) << "KS distance " << d;
  // P(|X| > k·b) = e^−k.
  std::vector<std::size_t> at_least(11, 0);  // draws with |x| > k·b, k ≤ 10
  for (const float x : xs) {
    const double k = std::min(10.0, std::abs(static_cast<double>(x)) / b);
    ++at_least[static_cast<std::size_t>(k)];
  }
  std::size_t beyond = 0;
  for (int k = 10; k >= 1; --k) {
    beyond += at_least[k];
    const double p = std::exp(-static_cast<double>(k));
    EXPECT_NEAR(static_cast<double>(beyond) / n, p,
                6.0 * std::sqrt(p * (1.0 - p) / n))
        << "k=" << k;
  }
}

/// Distance in units in the last place between two finite doubles.
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  if (std::signbit(a) != std::signbit(b)) return ~std::uint64_t{0};
  std::uint64_t ia, ib;
  std::memcpy(&ia, &a, 8);
  std::memcpy(&ib, &b, 8);
  return ia > ib ? ia - ib : ib - ia;
}

/// u for the kernel sweeps: every test word's u, plus k/8 exactly and the
/// grid's ends.
std::vector<double> sweep_us() {
  std::vector<double> us;
  for (const std::uint64_t w : test_words(1 << 20, 31)) {
    us.push_back(appfl::rng::open01_from_word(w));
  }
  for (int k = 0; k <= 8; ++k) us.push_back(k / 8.0);
  return us;
}

TEST(SamplingMath, LogIsWithinOneUlpOfTheLongDoubleReference) {
  std::vector<double> xs;
  for (const double u : sweep_us()) {
    if (u > 0.0) xs.push_back(u);
    const double t = 1.0 - 2.0 * std::abs(u - 0.5);  // the Laplace argument
    if (t > 0.0) xs.push_back(t);
  }
  for (const double x : {0x1.0p-52, 0x1.0p-1022, 0.5, 1.0, 2.0, 1e300,
                         std::sqrt(0.5), std::nextafter(std::sqrt(0.5), 1.0),
                         std::sqrt(2.0), std::nextafter(1.0, 0.0)}) {
    xs.push_back(x);
  }
  for (const double x : xs) {
    const double ref =
        static_cast<double>(std::log(static_cast<long double>(x)));
    ASSERT_LE(ulp_distance(math::log(x), ref), 1U) << "log(" << x << ")";
  }
}

TEST(SamplingMath, SinCos2PiIsWithinOneUlpOfTheLongDoubleReference) {
  const long double two_pi = 6.283185307179586476925286766559005768L;
  for (const double u : sweep_us()) {
    // Reference: the same exact reduction u = q/4 + r (q = nearest(4u)),
    // then long double sin/cos of 2πr folded by q — accurate even where
    // sin(2πu) is tiny near u = 1/2 and cos near 1/4 and 3/4.
    const double q = std::nearbyint(4.0 * u);
    const long double r = u - 0.25 * q;
    const long double sr = std::sin(two_pi * r), cr = std::cos(two_pi * r);
    const int quadrant = static_cast<int>(q) & 3;
    const long double sin_ref[4] = {sr, cr, -sr, -cr};
    const long double cos_ref[4] = {cr, -sr, -cr, sr};
    double s, c;
    math::sincos2pi(u, s, c);
    ASSERT_LE(ulp_distance(s, static_cast<double>(sin_ref[quadrant])), 1U)
        << "sin(2π·" << u << ")";
    ASSERT_LE(ulp_distance(c, static_cast<double>(cos_ref[quadrant])), 1U)
        << "cos(2π·" << u << ")";
  }
}

}  // namespace

// Differential-privacy mechanisms, sensitivity formulas, accountant — plus a
// statistical ε-DP check of the Laplace mechanism on adjacent scalars.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <limits>
#include <map>

#include "dp/accountant.hpp"
#include "dp/mechanism.hpp"
#include "dp/sensitivity.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NoOp, LeavesValuesUntouched) {
  appfl::dp::NoOpMechanism mech;
  appfl::rng::Rng r(1);
  std::vector<float> v{1.0F, 2.0F};
  mech.apply(v, r);
  EXPECT_EQ(v, (std::vector<float>{1.0F, 2.0F}));
  EXPECT_EQ(mech.scale(), 0.0);
}

TEST(Laplace, CalibrationIsSensitivityOverEpsilon) {
  const auto mech = appfl::dp::LaplaceMechanism::calibrated(2.0, 0.5);
  EXPECT_DOUBLE_EQ(mech.scale(), 0.25);
  EXPECT_THROW(appfl::dp::LaplaceMechanism::calibrated(0.0, 1.0), appfl::Error);
  EXPECT_THROW(appfl::dp::LaplaceMechanism::calibrated(kInf, 1.0), appfl::Error);
  EXPECT_THROW(appfl::dp::LaplaceMechanism::calibrated(1.0, 0.0), appfl::Error);
}

TEST(Laplace, EmpiricalNoiseVarianceIs2b2) {
  appfl::dp::LaplaceMechanism mech(0.5);
  appfl::rng::Rng r(2);
  std::vector<float> v(200000, 0.0F);
  mech.apply(v, r);
  double mean = 0.0, var = 0.0;
  for (float x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (float x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 2.0 * 0.5 * 0.5, 0.02);
}

TEST(Laplace, EmpiricalEpsilonDpOnAdjacentOutputs) {
  // A(D) = 0 + noise, A(D') = Δ + noise with Δ = sensitivity. For ε-DP the
  // log-ratio of densities over any interval is bounded by ε. Check the
  // worst-case bins empirically with ε = 1, Δ = 1 (b = 1).
  const double eps = 1.0, delta_sens = 1.0;
  const auto mech = appfl::dp::LaplaceMechanism::calibrated(eps, delta_sens);
  appfl::rng::Rng r(3);
  const int n = 400000;
  const double bin_w = 0.5;
  std::map<int, int> h0, h1;
  std::vector<float> buf(1);
  for (int i = 0; i < n; ++i) {
    buf[0] = 0.0F;
    mech.apply(buf, r);
    ++h0[static_cast<int>(std::floor(buf[0] / bin_w))];
    buf[0] = static_cast<float>(delta_sens);
    mech.apply(buf, r);
    ++h1[static_cast<int>(std::floor(buf[0] / bin_w))];
  }
  // Only test well-populated bins; allow sampling slack on top of e^ε.
  for (const auto& [bin, c0] : h0) {
    const auto it = h1.find(bin);
    if (it == h1.end() || c0 < 500 || it->second < 500) continue;
    const double ratio = static_cast<double>(c0) / it->second;
    EXPECT_LT(ratio, std::exp(eps) * 1.25) << "bin " << bin;
    EXPECT_GT(ratio, std::exp(-eps) / 1.25) << "bin " << bin;
  }
}

TEST(Gaussian, EmpiricalStddev) {
  appfl::dp::GaussianMechanism mech(2.0);
  appfl::rng::Rng r(4);
  std::vector<float> v(100000, 10.0F);
  mech.apply(v, r);
  double var = 0.0;
  for (float x : v) var += (x - 10.0) * (x - 10.0);
  var /= static_cast<double>(v.size());
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Factory, InfiniteEpsilonGivesNoOp) {
  const auto mech = appfl::dp::make_laplace_for_budget(kInf, 1.0);
  EXPECT_EQ(mech->name(), "none");
  const auto lap = appfl::dp::make_laplace_for_budget(2.0, 1.0);
  EXPECT_EQ(lap->name(), "laplace");
  EXPECT_DOUBLE_EQ(lap->scale(), 0.5);
}

TEST(Sensitivity, IadmmFormulaIs2COverRhoPlusZeta) {
  // Paper §III-B: Δ̄ = 2C/(ρ+ζ).
  EXPECT_DOUBLE_EQ(appfl::dp::iadmm_sensitivity(1.0, 5.0, 5.0), 0.2);
  EXPECT_DOUBLE_EQ(appfl::dp::iadmm_sensitivity(2.0, 10.0, 0.0), 0.4);
  EXPECT_THROW(appfl::dp::iadmm_sensitivity(0.0, 1.0, 1.0), appfl::Error);
  EXPECT_THROW(appfl::dp::iadmm_sensitivity(1.0, 0.0, 0.0), appfl::Error);
}

TEST(Sensitivity, FedavgScalesWithLearningRate) {
  EXPECT_DOUBLE_EQ(appfl::dp::fedavg_sensitivity(1.0, 0.1), 0.2);
  // Larger ρ+ζ ⇒ smaller IADMM sensitivity ⇒ less noise at fixed ε: the
  // coupling the paper highlights between hyper-parameters and privacy.
  EXPECT_LT(appfl::dp::iadmm_sensitivity(1.0, 20.0, 20.0),
            appfl::dp::iadmm_sensitivity(1.0, 2.0, 2.0));
}

TEST(Accountant, BasicCompositionSums) {
  appfl::dp::PrivacyAccountant acct(3, 10.0);
  EXPECT_TRUE(acct.spend(0, 3.0));
  EXPECT_TRUE(acct.spend(0, 3.0));
  EXPECT_DOUBLE_EQ(acct.spent(0), 6.0);
  EXPECT_DOUBLE_EQ(acct.spent(1), 0.0);
  EXPECT_DOUBLE_EQ(acct.max_spent(), 6.0);
}

TEST(Accountant, RefusesOverBudgetSpend) {
  appfl::dp::PrivacyAccountant acct(1, 5.0);
  EXPECT_TRUE(acct.spend(0, 4.0));
  EXPECT_FALSE(acct.spend(0, 2.0));   // would exceed
  EXPECT_DOUBLE_EQ(acct.spent(0), 4.0);  // unchanged on refusal
  EXPECT_TRUE(acct.spend(0, 1.0));    // exactly to the cap is fine
}

TEST(Accountant, UnlimitedBudgetNeverRefuses) {
  appfl::dp::PrivacyAccountant acct(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(acct.spend(0, 1e6));
}

TEST(Mechanism, NoiseIsDeterministicPerRngSeed) {
  appfl::dp::LaplaceMechanism mech(1.0);
  std::vector<float> a(16, 0.0F), b(16, 0.0F);
  appfl::rng::Rng r1(9), r2(9);
  mech.apply(a, r1);
  mech.apply(b, r2);
  EXPECT_EQ(a, b);
}

TEST(Mechanism, ApplyAddsTheBatchedNoiseInPlace) {
  // The mechanisms add exactly the values the batched samplers would fill,
  // one word per Laplace value and one Box–Muller pair per two Gaussian
  // values, whatever the length.
  for (const std::size_t n : {1, 2, 255, 256, 1001}) {
    std::vector<float> base(n);
    for (std::size_t i = 0; i < n; ++i) base[i] = 0.5F - 0.001F * i;
    std::vector<float> noise(n);

    std::vector<float> lap = base;
    appfl::rng::Rng r1(17), r2(17);
    appfl::dp::LaplaceMechanism(0.2).apply(lap, r1);
    appfl::rng::fill_laplace(r2, noise, 0.2);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(lap[i], base[i] + noise[i]);
    EXPECT_EQ(r1.state(), r2.state());

    std::vector<float> gauss = base;
    appfl::dp::GaussianMechanism(0.3).apply(gauss, r1);
    appfl::rng::fill_normal(r2, noise, 0.3);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(gauss[i], base[i] + noise[i]);
    }
    EXPECT_EQ(r1.state(), r2.state());
  }
}

}  // namespace

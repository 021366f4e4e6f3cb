#include "dp/mechanism.hpp"

#include <cmath>
#include <limits>

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace appfl::dp {

void NoOpMechanism::apply(std::span<float>, rng::Rng&) const {}

LaplaceMechanism::LaplaceMechanism(double scale_b) : scale_(scale_b) {
  APPFL_CHECK_MSG(scale_b > 0.0, "Laplace scale must be positive");
}

LaplaceMechanism LaplaceMechanism::calibrated(double epsilon,
                                              double sensitivity) {
  APPFL_CHECK_MSG(epsilon > 0.0 && std::isfinite(epsilon),
                  "Laplace calibration needs finite epsilon > 0");
  APPFL_CHECK_MSG(sensitivity > 0.0, "sensitivity must be positive");
  return LaplaceMechanism(sensitivity / epsilon);
}

void LaplaceMechanism::apply(std::span<float> values, rng::Rng& rng) const {
  rng::add_laplace(rng, values, scale_);
}

GaussianMechanism::GaussianMechanism(double sigma) : sigma_(sigma) {
  APPFL_CHECK_MSG(sigma > 0.0, "Gaussian sigma must be positive");
}

GaussianMechanism GaussianMechanism::calibrated(double epsilon, double delta,
                                                double l2_sensitivity) {
  APPFL_CHECK(epsilon > 0.0 && std::isfinite(epsilon));
  APPFL_CHECK(delta > 0.0 && delta < 1.0);
  APPFL_CHECK(l2_sensitivity > 0.0);
  const double sigma =
      l2_sensitivity * std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
  return GaussianMechanism(sigma);
}

void GaussianMechanism::apply(std::span<float> values, rng::Rng& rng) const {
  rng::add_normal(rng, values, sigma_);
}

std::unique_ptr<Mechanism> make_laplace_for_budget(double epsilon,
                                                   double sensitivity) {
  if (std::isinf(epsilon)) return std::make_unique<NoOpMechanism>();
  return std::make_unique<LaplaceMechanism>(
      LaplaceMechanism::calibrated(epsilon, sensitivity));
}

}  // namespace appfl::dp

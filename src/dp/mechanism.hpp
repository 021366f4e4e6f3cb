// Differential-privacy mechanisms (paper §III-B).
//
// The paper's scheme is output perturbation: before a client sends its local
// parameters z_p^{t+1}, it adds noise calibrated to the ε budget and the
// sensitivity Δ̄ of the local update. Laplace(0, Δ̄/ε) per coordinate gives
// ε-DP under the L1 composition used in the paper; the Gaussian mechanism is
// provided as the "more advanced scheme" the paper lists as future work.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "rng/rng.hpp"

namespace appfl::dp {

/// A randomized perturbation applied to an outgoing parameter vector.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Perturbs `values` in place using `rng`.
  virtual void apply(std::span<float> values, rng::Rng& rng) const = 0;

  /// Noise scale actually in use (0 for the no-op mechanism).
  virtual double scale() const = 0;

  virtual std::string name() const = 0;
};

/// ε = ∞: sends the true output. scale() == 0.
class NoOpMechanism : public Mechanism {
 public:
  void apply(std::span<float> values, rng::Rng& rng) const override;
  double scale() const override { return 0.0; }
  std::string name() const override { return "none"; }
};

/// Laplace output perturbation with scale b = Δ̄/ε̄ (Dwork & Roth).
class LaplaceMechanism : public Mechanism {
 public:
  /// Direct construction from the noise scale b > 0.
  explicit LaplaceMechanism(double scale_b);

  /// Calibrated construction: b = sensitivity / epsilon.
  static LaplaceMechanism calibrated(double epsilon, double sensitivity);

  void apply(std::span<float> values, rng::Rng& rng) const override;
  double scale() const override { return scale_; }
  std::string name() const override { return "laplace"; }

 private:
  double scale_;
};

/// Gaussian mechanism with stddev sigma (provides (ε, δ)-DP; implemented as
/// the paper's planned extension).
class GaussianMechanism : public Mechanism {
 public:
  explicit GaussianMechanism(double sigma);

  void apply(std::span<float> values, rng::Rng& rng) const override;
  double scale() const override { return sigma_; }
  std::string name() const override { return "gaussian"; }

 private:
  double sigma_;
};

/// Builds the mechanism for a requested ε (∞ ⇒ NoOp) and sensitivity.
std::unique_ptr<Mechanism> make_laplace_for_budget(double epsilon,
                                                   double sensitivity);

}  // namespace appfl::dp

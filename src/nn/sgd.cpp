#include "nn/sgd.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace appfl::nn {

Sgd::Sgd(float lr, float momentum, float weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  APPFL_CHECK_MSG(lr > 0.0F, "learning rate must be positive");
  APPFL_CHECK_MSG(momentum >= 0.0F && momentum < 1.0F,
                  "momentum must be in [0, 1)");
  APPFL_CHECK_MSG(weight_decay >= 0.0F, "weight decay must be non-negative");
}

void Sgd::step(Module& model) {
  auto params = model.params();
  if (velocity_.empty()) {
    velocity_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      velocity_[i].assign(params[i]->value.size(), 0.0F);
    }
  }
  APPFL_CHECK_MSG(velocity_.size() == params.size(),
                  "optimizer bound to a different model layout");
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto w = params[i]->value.data();
    const auto g = params[i]->grad.data();
    auto& v = velocity_[i];
    APPFL_CHECK(v.size() == w.size());
    if (momentum_ > 0.0F) {
      for (std::size_t j = 0; j < w.size(); ++j) {
        v[j] = momentum_ * v[j] + g[j] + weight_decay_ * w[j];
        w[j] -= lr_ * v[j];
      }
    } else {
      for (std::size_t j = 0; j < w.size(); ++j) {
        w[j] -= lr_ * (g[j] + weight_decay_ * w[j]);
      }
    }
  }
}

void Sgd::reset() { velocity_.clear(); }

float scheduled_lr(LrSchedule schedule, float base, std::size_t round,
                   std::size_t total_rounds) {
  APPFL_CHECK(base > 0.0F);
  APPFL_CHECK(round >= 1 && total_rounds >= 1);
  switch (schedule) {
    case LrSchedule::kConstant:
      return base;
    case LrSchedule::kStepDecay: {
      const std::size_t step = std::max<std::size_t>(1, total_rounds / 3);
      const std::size_t drops = (round - 1) / step;
      float lr = base;
      for (std::size_t i = 0; i < drops; ++i) lr *= 0.5F;
      return lr;
    }
    case LrSchedule::kCosine: {
      const double progress = static_cast<double>(round - 1) /
                              static_cast<double>(total_rounds);
      return static_cast<float>(base * 0.5 * (1.0 + std::cos(M_PI * progress)));
    }
  }
  APPFL_CHECK(false);
  return base;
}

}  // namespace appfl::nn

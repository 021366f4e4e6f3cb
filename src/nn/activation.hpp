// Elementwise activation layers.
#pragma once

#include "nn/module.hpp"

namespace appfl::nn {

/// Rectified linear unit: y = max(x, 0).
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> clone() const override;
  std::string name() const override { return "ReLU"; }
  double forward_flops(std::size_t batch) const override;

 private:
  Tensor cached_input_;
};

}  // namespace appfl::nn

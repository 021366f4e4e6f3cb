#include "nn/activation.hpp"

#include <cmath>

#include "util/check.hpp"

namespace appfl::nn {

Tensor ReLU::forward(const Tensor& input) {
  keep_for_backward(cached_input_, input);
  Tensor out = input;
  for (auto& v : out.data()) v = v > 0.0F ? v : 0.0F;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(grad_output.shape() == cached_input_.shape(),
                  "ReLU.backward shape mismatch — forward not called?");
  Tensor out = grad_output;
  auto od = out.data();
  const auto xd = cached_input_.data();
  for (std::size_t i = 0; i < od.size(); ++i) {
    if (xd[i] <= 0.0F) od[i] = 0.0F;
  }
  return out;
}

std::unique_ptr<Module> ReLU::clone() const { return std::make_unique<ReLU>(); }

double ReLU::forward_flops(std::size_t batch) const {
  return static_cast<double>(
      cached_input_.size() == 0 ? batch : cached_input_.size());
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (auto& v : out.data()) v = std::tanh(v);
  keep_for_backward(cached_output_, out);
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(grad_output.shape() == cached_output_.shape(),
                  "Tanh.backward shape mismatch — forward not called?");
  Tensor out = grad_output;
  auto od = out.data();
  const auto yd = cached_output_.data();
  for (std::size_t i = 0; i < od.size(); ++i) od[i] *= 1.0F - yd[i] * yd[i];
  return out;
}

std::unique_ptr<Module> Tanh::clone() const { return std::make_unique<Tanh>(); }

double Tanh::forward_flops(std::size_t batch) const {
  // tanh ≈ a handful of FLOPs; count 8 per element.
  return 8.0 * static_cast<double>(
                   cached_output_.size() == 0 ? batch : cached_output_.size());
}

}  // namespace appfl::nn

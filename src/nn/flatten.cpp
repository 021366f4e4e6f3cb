#include "nn/flatten.hpp"

#include "util/check.hpp"

namespace appfl::nn {

Tensor Flatten::forward(const Tensor& input) {
  APPFL_CHECK_MSG(input.rank() >= 1, "Flatten needs a batch axis");
  keep_for_backward(cached_input_shape_, input.shape());
  const std::size_t n = input.dim(0);
  const std::size_t rest = n == 0 ? 0 : input.size() / n;
  return input.reshaped({n, rest});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(!cached_input_shape_.empty(),
                  "Flatten.backward called before forward");
  return grad_output.reshaped(cached_input_shape_);
}

std::unique_ptr<Module> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

double Flatten::forward_flops(std::size_t) const { return 0.0; }

}  // namespace appfl::nn

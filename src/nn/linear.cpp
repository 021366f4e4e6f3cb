#include "nn/linear.hpp"

#include <cmath>
#include <sstream>

#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, rng::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("weight",
              Tensor::rand_uniform({out_features, in_features}, rng,
                                   -1.0F / std::sqrt(static_cast<float>(in_features)),
                                   1.0F / std::sqrt(static_cast<float>(in_features)))),
      bias_("bias",
            Tensor::rand_uniform({out_features}, rng,
                                 -1.0F / std::sqrt(static_cast<float>(in_features)),
                                 1.0F / std::sqrt(static_cast<float>(in_features)))) {
  APPFL_CHECK(in_features > 0 && out_features > 0);
}

Tensor Linear::forward(const Tensor& input) {
  APPFL_CHECK_MSG(input.rank() == 2 && input.dim(1) == in_,
                  name() << " got input " << tensor::to_string(input.shape()));
  keep_for_backward(cached_input_, input);
  Tensor out = tensor::matmul_bt(input, weight_.value);  // [N, out]
  auto od = out.data();
  const auto bd = bias_.value.data();
  const std::size_t n = out.dim(0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < out_; ++c) od[r * out_ + c] += bd[c];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(grad_output.rank() == 2 && grad_output.dim(1) == out_,
                  name() << " got grad " << tensor::to_string(grad_output.shape()));
  APPFL_CHECK_MSG(cached_input_.dim(0) == grad_output.dim(0),
                  "backward batch mismatch — forward not called?");
  // dW = gyᵀ · x; db = Σ_rows gy; dx = gy · W.
  Tensor dw = tensor::matmul_at(grad_output, cached_input_);  // [out, in]
  tensor::add_inplace(weight_.grad, dw);
  auto gb = bias_.grad.data();
  const auto gy = grad_output.data();
  const std::size_t n = grad_output.dim(0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < out_; ++c) gb[c] += gy[r * out_ + c];
  }
  return tensor::matmul(grad_output, weight_.value);  // [N, in]
}

std::unique_ptr<Module> Linear::clone() const {
  auto copy = std::unique_ptr<Linear>(new Linear(*this));
  copy->cached_input_ = Tensor();
  copy->weight_.grad.fill(0.0F);
  copy->bias_.grad.fill(0.0F);
  return copy;
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_ << "->" << out_ << ")";
  return os.str();
}

std::vector<Param*> Linear::params() { return {&weight_, &bias_}; }

double Linear::forward_flops(std::size_t batch) const {
  // One multiply-add per (batch, out, in) triple, plus the bias add.
  return static_cast<double>(batch) *
         (2.0 * static_cast<double>(in_) * static_cast<double>(out_) +
          static_cast<double>(out_));
}

}  // namespace appfl::nn

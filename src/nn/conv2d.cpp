#include "nn/conv2d.hpp"

#include <cmath>
#include <sstream>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, rng::Rng& rng, std::size_t stride,
               std::size_t padding, Backend backend)
    : spec_{in_channels, out_channels, kernel, stride, padding},
      backend_(backend),
      weight_("weight", Tensor()),
      bias_("bias", Tensor()) {
  APPFL_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0);
  const float bound =
      1.0F / std::sqrt(static_cast<float>(in_channels * kernel * kernel));
  weight_ = Param("weight",
                  Tensor::rand_uniform({out_channels, in_channels, kernel, kernel},
                                       rng, -bound, bound));
  bias_ = Param("bias", Tensor::rand_uniform({out_channels}, rng, -bound, bound));
}

Conv2d::Backend Conv2d::resolved_backend() const {
  if (backend_ != Backend::kAuto) return backend_;
  return tensor::kernel_config().backend == tensor::KernelBackend::kTiled
             ? Backend::kGemm
             : Backend::kDirect;
}

Tensor Conv2d::forward(const Tensor& input) {
  last_h_ = input.dim(2);
  last_w_ = input.dim(3);
  keep_for_backward(cached_input_, input);
  if (resolved_backend() == Backend::kGemm) {
    return tensor::conv2d_forward_gemm(input, weight_.value, bias_.value,
                                       spec_);
  }
  return tensor::conv2d_forward(input, weight_.value, bias_.value, spec_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(cached_input_.rank() == 4,
                  name() << ".backward called before forward");
  if (resolved_backend() == Backend::kGemm) {
    tensor::Conv2dGrads grads = tensor::conv2d_backward_gemm(
        grad_output, cached_input_, weight_.value, spec_);
    tensor::add_inplace(weight_.grad, grads.weight);
    tensor::add_inplace(bias_.grad, grads.bias);
    return std::move(grads.input);
  }
  Tensor dw = tensor::conv2d_backward_weight(grad_output, cached_input_, spec_);
  tensor::add_inplace(weight_.grad, dw);
  Tensor db = tensor::conv2d_backward_bias(grad_output);
  tensor::add_inplace(bias_.grad, db);
  return tensor::conv2d_backward_input(grad_output, weight_.value,
                                       cached_input_.shape(), spec_);
}

std::unique_ptr<Module> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d(*this));
  copy->cached_input_ = Tensor();
  copy->weight_.grad.fill(0.0F);
  copy->bias_.grad.fill(0.0F);
  return copy;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << spec_.in_channels << "->" << spec_.out_channels << ", k="
     << spec_.kernel << ", s=" << spec_.stride << ", p=" << spec_.padding << ")";
  return os.str();
}

std::vector<Param*> Conv2d::params() { return {&weight_, &bias_}; }

double Conv2d::forward_flops(std::size_t batch) const {
  const double oh = static_cast<double>(spec_.out_extent(last_h_));
  const double ow = static_cast<double>(spec_.out_extent(last_w_));
  const double per_output = 2.0 * static_cast<double>(spec_.in_channels) *
                            static_cast<double>(spec_.kernel * spec_.kernel);
  return static_cast<double>(batch) * static_cast<double>(spec_.out_channels) *
         oh * ow * per_output;
}

}  // namespace appfl::nn

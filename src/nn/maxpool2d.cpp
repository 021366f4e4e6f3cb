#include "nn/maxpool2d.hpp"

#include <sstream>

#include "util/check.hpp"

namespace appfl::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : spec_{kernel, stride} {}

Tensor MaxPool2d::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  last_elems_ = input.size();
  auto result = tensor::maxpool2d_forward(input, spec_);
  keep_for_backward(cached_argmax_, std::move(result.argmax));
  return std::move(result.output);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(!cached_argmax_.empty(),
                  name() << ".backward called before forward");
  return tensor::maxpool2d_backward(grad_output, cached_argmax_,
                                    cached_input_shape_);
}

std::unique_ptr<Module> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(spec_.kernel, spec_.stride);
}

std::string MaxPool2d::name() const {
  std::ostringstream os;
  os << "MaxPool2d(k=" << spec_.kernel << ", s=" << spec_.stride << ")";
  return os.str();
}

double MaxPool2d::forward_flops(std::size_t batch) const {
  // One comparison per input element; count comparisons as FLOPs.
  (void)batch;
  return static_cast<double>(last_elems_ == 0 ? batch : last_elems_);
}

}  // namespace appfl::nn

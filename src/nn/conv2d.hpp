// Convolution layer: forward and backward run the im2col + GEMM lowering
// (tensor/im2col.hpp). The direct loops of tensor/conv.hpp are its oracle.
#pragma once

#include "nn/module.hpp"
#include "rng/rng.hpp"
#include "tensor/conv.hpp"

namespace appfl::nn {

class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         rng::Rng& rng, std::size_t stride = 1, std::size_t padding = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> clone() const override;
  std::string name() const override;
  std::vector<Param*> params() override;
  double forward_flops(std::size_t batch) const override;

  const tensor::Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2d(const Conv2d&) = default;

  tensor::Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
  // Spatial extent seen by the most recent forward; forward_flops needs a
  // representative input size, so we remember it (28×28 before first use).
  mutable std::size_t last_h_ = 28;
  mutable std::size_t last_w_ = 28;
};

}  // namespace appfl::nn

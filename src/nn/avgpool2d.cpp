#include "nn/avgpool2d.hpp"

#include <sstream>

#include "util/check.hpp"

namespace appfl::nn {

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {
  APPFL_CHECK(kernel >= 1 && stride >= 1);
}

Tensor AvgPool2d::forward(const Tensor& input) {
  APPFL_CHECK_MSG(input.rank() == 4, "AvgPool2d input must be NCHW, got "
                                         << tensor::to_string(input.shape()));
  keep_for_backward(cached_input_shape_, input.shape());
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  APPFL_CHECK(h >= kernel_ && w >= kernel_);
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({n, c, oh, ow});
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  const float* X = input.raw();
  float* Y = out.raw();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* x = X + (img * c + ch) * h * w;
      float* y = Y + (img * c + ch) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0F;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              acc += x[(oy * stride_ + ky) * w + ox * stride_ + kx];
            }
          }
          y[oy * ow + ox] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(!cached_input_shape_.empty(),
                  "AvgPool2d.backward called before forward");
  const std::size_t n = cached_input_shape_[0], c = cached_input_shape_[1];
  const std::size_t h = cached_input_shape_[2], w = cached_input_shape_[3];
  const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  Tensor grad_input(cached_input_shape_);
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  const float* GY = grad_output.raw();
  float* GX = grad_input.raw();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* gy = GY + (img * c + ch) * oh * ow;
      float* gx = GX + (img * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = gy[oy * ow + ox] * inv;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              gx[(oy * stride_ + ky) * w + ox * stride_ + kx] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::unique_ptr<Module> AvgPool2d::clone() const {
  return std::make_unique<AvgPool2d>(kernel_, stride_);
}

std::string AvgPool2d::name() const {
  std::ostringstream os;
  os << "AvgPool2d(k=" << kernel_ << ", s=" << stride_ << ")";
  return os.str();
}

double AvgPool2d::forward_flops(std::size_t batch) const {
  const double elems =
      cached_input_shape_.empty()
          ? static_cast<double>(batch)
          : static_cast<double>(tensor::numel(cached_input_shape_));
  return elems;
}

}  // namespace appfl::nn

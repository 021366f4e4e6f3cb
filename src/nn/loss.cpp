#include "nn/loss.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::nn {

LossResult CrossEntropyLoss::compute(
    const Tensor& logits, std::span<const std::size_t> labels) const {
  APPFL_CHECK_MSG(logits.rank() == 2,
                  "CrossEntropyLoss expects [N, C] logits, got "
                      << tensor::to_string(logits.shape()));
  const std::size_t n = logits.dim(0);
  const std::size_t c = logits.dim(1);
  APPFL_CHECK_MSG(labels.size() == n, "label count " << labels.size()
                                                     << " != batch " << n);
  APPFL_CHECK(n > 0);

  Tensor probs = tensor::softmax_rows(logits);
  double loss = 0.0;
  auto pd = probs.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t y = labels[r];
    APPFL_CHECK_MSG(y < c, "label " << y << " out of range for " << c
                                    << " classes");
    // Clamp to avoid log(0) when the softmax saturates in float32.
    const double p = std::max(static_cast<double>(pd[r * c + y]), 1e-12);
    loss -= std::log(p);
  }
  loss /= static_cast<double>(n);

  // grad = (softmax − onehot) / N.
  Tensor grad = std::move(probs);
  auto gd = grad.data();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::size_t r = 0; r < n; ++r) {
    gd[r * c + labels[r]] -= 1.0F;
    for (std::size_t j = 0; j < c; ++j) gd[r * c + j] *= inv_n;
  }
  return {loss, std::move(grad)};
}

LossResult MseLoss::compute(const Tensor& predictions,
                            const Tensor& targets) const {
  APPFL_CHECK_MSG(predictions.shape() == targets.shape(),
                  "MseLoss shape mismatch "
                      << tensor::to_string(predictions.shape()) << " vs "
                      << tensor::to_string(targets.shape()));
  APPFL_CHECK(predictions.size() > 0);
  const std::size_t n = predictions.size();
  double loss = 0.0;
  Tensor grad = predictions;
  auto gd = grad.data();
  const auto td = targets.data();
  const float scale = 2.0F / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(gd[i]) - static_cast<double>(td[i]);
    loss += d * d;
    gd[i] = static_cast<float>(d) * scale;
  }
  return {loss / static_cast<double>(n), std::move(grad)};
}

}  // namespace appfl::nn

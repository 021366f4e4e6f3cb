// Loss functions. CrossEntropyLoss fuses log-softmax with negative
// log-likelihood (like torch.nn.CrossEntropyLoss): it takes raw logits.
#pragma once

#include <cstddef>
#include <span>

#include "nn/module.hpp"

namespace appfl::nn {

/// Result of a loss evaluation: the scalar mean loss and dLoss/dLogits.
struct LossResult {
  double loss = 0.0;
  Tensor grad;  // same shape as logits
};

class CrossEntropyLoss {
 public:
  /// logits: [N, C]; labels: N class indices in [0, C).
  /// Returns mean loss over the batch and the gradient (softmax − onehot)/N.
  LossResult compute(const Tensor& logits,
                     std::span<const std::size_t> labels) const;
};

}  // namespace appfl::nn

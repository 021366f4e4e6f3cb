// SGD optimizer with classical momentum (Qian 1999) — the local solver the
// paper uses for FedAvg clients.
//
//   g ← g + λ·w  (decoupled L2 weight decay, when enabled)
//   v ← μ·v + g;  w ← w − η·v
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace appfl::nn {

class Sgd {
 public:
  /// lr: learning rate η > 0; momentum: μ ∈ [0, 1);
  /// weight_decay: L2 coefficient λ ≥ 0.
  Sgd(float lr, float momentum = 0.0F, float weight_decay = 0.0F);

  /// Applies one update using the gradients currently accumulated in
  /// `model`. Velocity buffers are allocated lazily on first use and keyed
  /// to the model's parameter layout.
  void step(Module& model);

  float lr() const { return lr_; }
  float momentum() const { return momentum_; }
  float weight_decay() const { return weight_decay_; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<std::vector<float>> velocity_;  // one buffer per parameter
};

/// Per-round learning-rate schedules for the FL client solver.
enum class LrSchedule { kConstant, kStepDecay, kCosine };

/// lr at communication round `round` (1-based) out of `total_rounds`.
///   kConstant : base
///   kStepDecay: base · decay^⌊(round−1)/step⌋  (step = total/3, decay 0.5)
///   kCosine   : base · ½(1 + cos(π·(round−1)/total))
float scheduled_lr(LrSchedule schedule, float base, std::size_t round,
                   std::size_t total_rounds);

}  // namespace appfl::nn

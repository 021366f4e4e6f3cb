// Module: the torch.nn.Module stand-in.
//
// A Module is a differentiable block with named parameters. The FL layer
// never looks inside a model — it exchanges *flat parameter vectors*
// (flat_parameters / set_flat_parameters), exactly how APPFL moves PyTorch
// state_dicts across the wire. forward() caches whatever backward() needs,
// so the usage protocol is strictly: forward → backward → (read grads).
// Under a NoGradGuard (the torch.no_grad() idiom) forward keeps no backward
// caches, for passes that only read the output, such as validation.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace appfl::nn {

using tensor::Tensor;

/// A named parameter: value and its accumulated gradient (same shape).
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// True unless a NoGradGuard is live on the calling thread.
bool grad_enabled();

/// While one is live on a thread, the layers that cache activations for
/// backward (Linear, Conv2d, ReLU, Tanh, MaxPool2d, AvgPool2d, Flatten)
/// drop and skip those caches in forward() on that thread, so a following
/// backward() fails as if forward had never run. Outputs are unchanged.
/// Guards nest; each restores the state it found. Independent of
/// set_training: Dropout and BatchNorm follow train/eval mode alone.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// A forward pass's store of what backward needs: `cache = value`, or an
/// empty `cache` (memory released) while a NoGradGuard is live.
template <class T, class U>
void keep_for_backward(T& cache, U&& value) {
  if (grad_enabled()) {
    cache = std::forward<U>(value);
  } else {
    cache = T();
  }
}

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output for `input`, caching activations for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter grads and returns
  /// dLoss/dInput. Must be called after forward() on the same input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Deep copy with identical parameter values and zeroed caches. Used to
  /// stamp out per-client model replicas from a prototype.
  virtual std::unique_ptr<Module> clone() const = 0;

  /// Short structural name, e.g. "Linear(784->64)".
  virtual std::string name() const = 0;

  /// Direct parameters of this module (empty for stateless layers).
  /// Containers (Sequential) return the concatenation over children.
  virtual std::vector<Param*> params() { return {}; }

  /// Estimated forward FLOPs for a batch of `batch` inputs. Containers sum
  /// over children. Used by the hardware cost model (Fig 3a, §IV-E).
  virtual double forward_flops(std::size_t batch) const = 0;

  /// Switches train/eval behaviour (Dropout, future BatchNorm). Stateless
  /// layers ignore it; containers propagate to children. Default: training.
  virtual void set_training(bool training) { (void)training; }

  // -- Flat-vector plumbing (implemented on top of params()) ------------------

  /// Total number of scalar parameters.
  std::size_t num_parameters();

  /// Concatenation of all parameter values, in params() order.
  std::vector<float> flat_parameters();

  /// Overwrites all parameters from a flat vector (size must match).
  void set_flat_parameters(std::span<const float> flat);

  /// Concatenation of all parameter gradients.
  std::vector<float> flat_gradients();

  /// Zeroes every parameter gradient.
  void zero_grad();
};

}  // namespace appfl::nn

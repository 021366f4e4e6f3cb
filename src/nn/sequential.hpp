// Sequential container: runs children in order (forward) and in reverse
// (backward). Owns its children.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.hpp"

namespace appfl::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer (builder style).
  Sequential& add(std::unique_ptr<Module> layer);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> clone() const override;
  std::string name() const override;
  std::vector<Param*> params() override;
  double forward_flops(std::size_t batch) const override;

  std::size_t num_layers() const { return layers_.size(); }
  Module& layer(std::size_t i);

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace appfl::nn

#include "nn/sequential.hpp"

#include <sstream>

#include "util/check.hpp"

namespace appfl::nn {

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  APPFL_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::unique_ptr<Module> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& l : layers_) copy->add(l->clone());
  return copy;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential(";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) os << ", ";
    os << layers_[i]->name();
  }
  os << ")";
  return os.str();
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    auto child = l->params();
    out.insert(out.end(), child.begin(), child.end());
  }
  return out;
}

double Sequential::forward_flops(std::size_t batch) const {
  double total = 0.0;
  for (const auto& l : layers_) total += l->forward_flops(batch);
  return total;
}

Module& Sequential::layer(std::size_t i) {
  APPFL_CHECK(i < layers_.size());
  return *layers_[i];
}

}  // namespace appfl::nn

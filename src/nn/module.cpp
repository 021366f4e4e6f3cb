#include "nn/module.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::nn {

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

std::size_t Module::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

std::vector<float> Module::flat_parameters() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (Param* p : params()) {
    auto d = p->value.data();
    flat.insert(flat.end(), d.begin(), d.end());
  }
  return flat;
}

void Module::set_flat_parameters(std::span<const float> flat) {
  std::size_t off = 0;
  for (Param* p : params()) {
    auto d = p->value.data();
    APPFL_CHECK_MSG(off + d.size() <= flat.size(),
                    "flat parameter vector too short at param " << p->name);
    tensor::copy(flat.subspan(off, d.size()), d);
    off += d.size();
  }
  APPFL_CHECK_MSG(off == flat.size(), "flat parameter vector too long: "
                                          << flat.size() << " vs " << off);
}

std::vector<float> Module::flat_gradients() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (Param* p : params()) {
    auto d = p->grad.data();
    flat.insert(flat.end(), d.begin(), d.end());
  }
  return flat;
}

void Module::zero_grad() {
  for (Param* p : params()) p->grad.fill(0.0F);
}

}  // namespace appfl::nn

// Test helper: set the process-wide kernel thread count for one scope and
// restore the previous setting on exit, so tests can force thread counts
// without leaking state into later tests in the same binary.
#pragma once

#include "tensor/gemm.hpp"

namespace appfl::testutil {

class ScopedKernelConfig {
 public:
  explicit ScopedKernelConfig(std::size_t threads)
      : previous_(tensor::kernel_config()) {
    tensor::set_kernel_config({threads});
  }
  ~ScopedKernelConfig() { tensor::set_kernel_config(previous_); }

  ScopedKernelConfig(const ScopedKernelConfig&) = delete;
  ScopedKernelConfig& operator=(const ScopedKernelConfig&) = delete;

 private:
  tensor::KernelConfig previous_;
};

}  // namespace appfl::testutil

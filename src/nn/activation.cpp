#include "nn/activation.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/check.hpp"

namespace appfl::nn {

namespace {

// Both ReLU passes are one SSE pass with no branch: GCC compiles the scalar
// select `x > 0 ? x : 0` (and std::max) to a compare and a jump per element,
// which mispredicts on noisy activations. SSE2 is the x86-64 baseline, so
// nothing is dispatched at run time; other targets keep the select, which
// defines the bits.

/// y[i] = x[i] > 0 ? x[i] : +0, so NaN and −0 map to +0. maxps(a, b)
/// returns a exactly when a > b, which is that select.
void relu_forward(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_max_ps(_mm_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) _mm_store_ss(y + i, _mm_max_ss(_mm_load_ss(x + i), zero));
#else
  for (; i < n; ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
#endif
}

/// dx[i] = g[i] where !(x[i] <= 0), which includes NaN x, else +0. cmpnleps
/// yields exactly that mask.
void relu_backward(const float* x, const float* g, float* dx, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  for (; i + 4 <= n; i += 4) {
    const __m128 keep = _mm_cmpnle_ps(_mm_loadu_ps(x + i), zero);
    _mm_storeu_ps(dx + i, _mm_and_ps(keep, _mm_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    const __m128 keep = _mm_cmpnle_ss(_mm_load_ss(x + i), zero);
    _mm_store_ss(dx + i, _mm_and_ps(keep, _mm_load_ss(g + i)));
  }
#else
  for (; i < n; ++i) dx[i] = x[i] <= 0.0F ? 0.0F : g[i];
#endif
}

}  // namespace

Tensor ReLU::forward(const Tensor& input) {
  keep_for_backward(cached_input_, input);
  Tensor out(input.shape());
  relu_forward(input.raw(), out.raw(), out.size());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  APPFL_CHECK_MSG(grad_output.shape() == cached_input_.shape(),
                  "ReLU.backward shape mismatch — forward not called?");
  Tensor out(grad_output.shape());
  relu_backward(cached_input_.raw(), grad_output.raw(), out.raw(), out.size());
  return out;
}

std::unique_ptr<Module> ReLU::clone() const { return std::make_unique<ReLU>(); }

double ReLU::forward_flops(std::size_t batch) const {
  return static_cast<double>(
      cached_input_.size() == 0 ? batch : cached_input_.size());
}

}  // namespace appfl::nn

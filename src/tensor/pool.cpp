#include "tensor/pool.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/check.hpp"

namespace appfl::tensor {

std::size_t MaxPool2dSpec::out_extent(std::size_t in_extent) const {
  APPFL_CHECK(kernel > 0 && stride > 0);
  APPFL_CHECK_MSG(in_extent >= kernel,
                  "maxpool kernel " << kernel << " larger than input "
                                    << in_extent);
  return (in_extent - kernel) / stride + 1;
}

namespace {

/// Max pooling of `planes` H×W planes into OH×OW ones. Each window keeps
/// its first strict maximum in (ky, kx) order and that input's absolute
/// index: a slot replaces the best only when slot > best, so ties, NaN slots
/// and a −0/+0 pair keep the earlier one, and a NaN first slot is never
/// replaced (slot 0 against itself changes nothing). maxps(v, best) returns
/// v exactly when v > best, and the same compare selects the offset, so no
/// slot branches. Four windows of a row share one SSE register. S and K are
/// the stride and kernel when known at compile time (the paper CNN's 2×2,
/// stride 2 pooling), else 0.
template <std::size_t S, std::size_t K>
void maxpool_planes(const float* X, std::size_t planes, std::size_t h,
                    std::size_t w, const MaxPool2dSpec& spec, float* Y,
                    std::size_t* AM) {
  const std::size_t k = K != 0 ? K : spec.kernel;
  const std::size_t s = S != 0 ? S : spec.stride;
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      // Index of the first input of this output row's windows.
      const std::size_t row = p * h * w + oy * s * w;
      const float* top = X + row;
      float* y = Y + (p * oh + oy) * ow;
      std::size_t* am = AM + (p * oh + oy) * ow;
      std::size_t ox = 0;
#if defined(__SSE2__)
      // Lanes q[0], q[s], q[2s], q[3s]: one slot of four windows. Every load
      // stays within the four windows' inputs.
      const auto load4 = [s](const float* q) {
        if constexpr (S == 2) {
          return _mm_shuffle_ps(_mm_loadu_ps(q), _mm_loadu_ps(q + 3),
                                _MM_SHUFFLE(3, 1, 2, 0));
        } else {
          return _mm_setr_ps(q[0], q[s], q[2 * s], q[3 * s]);
        }
      };
      const __m128i lane_base =
          _mm_set_epi64x(static_cast<long long>(s), 0);  // lanes 0 and 1
      // Groups of four windows; when ow is not a multiple of four the last
      // group overlaps the one before it and rewrites equal values.
      for (std::size_t next = 0; next < ow && ow >= 4; next += 4) {
        ox = std::min(next, ow - 4);
        const float* first = top + ox * s;
        __m128 best = load4(first);
        __m128i off = _mm_setzero_si128();
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const std::size_t o = ky * w + kx;
            const __m128 v = load4(first + o);
            const __m128i gt = _mm_castps_si128(_mm_cmpgt_ps(v, best));
            best = _mm_max_ps(v, best);
            off = _mm_or_si128(
                _mm_and_si128(gt, _mm_set1_epi32(static_cast<int>(o))),
                _mm_andnot_si128(gt, off));
          }
        }
        _mm_storeu_ps(y + ox, best);
        // Absolute index = window top + offset, widened to 64 bits (the
        // offsets are non-negative).
        const __m128i base = _mm_add_epi64(
            _mm_set1_epi64x(static_cast<long long>(row + ox * s)), lane_base);
        const __m128i two = _mm_set1_epi64x(static_cast<long long>(2 * s));
        const __m128i zero = _mm_setzero_si128();
        _mm_storeu_si128(reinterpret_cast<__m128i*>(am + ox),
                         _mm_add_epi64(base, _mm_unpacklo_epi32(off, zero)));
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(am + ox + 2),
            _mm_add_epi64(_mm_add_epi64(base, two),
                          _mm_unpackhi_epi32(off, zero)));
      }
      // Rows narrower than four windows, one scalar SSE lane each.
      for (ox = ow >= 4 ? ow : 0; ox < ow; ++ox) {
        const float* first = top + ox * s;
        __m128 best = _mm_load_ss(first);
        std::int32_t off = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const auto o = static_cast<std::int32_t>(ky * w + kx);
            const __m128 v = _mm_load_ss(first + o);
            const std::int32_t gt =
                _mm_cvtsi128_si32(_mm_castps_si128(_mm_cmpgt_ss(v, best)));
            best = _mm_max_ss(v, best);
            off = (gt & o) | (~gt & off);
          }
        }
        _mm_store_ss(y + ox, best);
        am[ox] = row + ox * s + static_cast<std::size_t>(off);
      }
#else
      for (; ox < ow; ++ox) {
        const float* first = top + ox * s;
        float best = first[0];
        std::size_t off = 0;
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const std::size_t o = ky * w + kx;
            const bool gt = first[o] > best;
            best = gt ? first[o] : best;
            off = gt ? o : off;
          }
        }
        y[ox] = best;
        am[ox] = row + ox * s + off;
      }
#endif
    }
  }
}

}  // namespace

MaxPoolResult maxpool2d_forward(const Tensor& input, const MaxPool2dSpec& spec) {
  APPFL_CHECK_MSG(input.rank() == 4,
                  "maxpool2d input must be NCHW, got "
                      << to_string(input.shape()));
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  // Window offsets are tracked as int32 lanes.
  APPFL_CHECK_MSG(h * w <= static_cast<std::size_t>(INT32_MAX),
                  "maxpool2d plane " << h << "x" << w << " too large");

  MaxPoolResult result{Tensor({n, c, oh, ow}), {}};
  result.argmax.resize(n * c * oh * ow);
  const float* X = input.raw();
  float* Y = result.output.raw();
  std::size_t* AM = result.argmax.data();
  if (spec.kernel == 2 && spec.stride == 2) {
    maxpool_planes<2, 2>(X, n * c, h, w, spec, Y, AM);
  } else {
    maxpool_planes<0, 0>(X, n * c, h, w, spec, Y, AM);
  }
  return result;
}

Tensor maxpool2d_backward(const Tensor& grad_output,
                          const std::vector<std::size_t>& argmax,
                          const Shape& input_shape) {
  APPFL_CHECK(grad_output.size() == argmax.size());
  Tensor grad_input(input_shape);
  float* GX = grad_input.raw();
  const float* GY = grad_output.raw();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    APPFL_CHECK_MSG(argmax[i] < grad_input.size(),
                    "argmax index out of range: " << argmax[i]);
    GX[argmax[i]] += GY[i];
  }
  return grad_input;
}

}  // namespace appfl::tensor

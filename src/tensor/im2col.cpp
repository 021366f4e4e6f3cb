#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace appfl::tensor {

namespace {

/// Output positions [lo, hi) along an axis of `in` inputs whose window
/// reads `taps` inputs from its first one on, all inside the input. With
/// taps = kernel these are the windows that touch no padding.
struct Inside {
  std::size_t lo = 0, hi = 0;
};

Inside inside_windows(std::size_t in, std::size_t out, const Conv2dSpec& spec,
                      std::size_t taps) {
  const std::size_t lo =
      std::min(out, (spec.padding + spec.stride - 1) / spec.stride);
  const std::size_t fit = in + spec.padding >= taps
                              ? (in + spec.padding - taps) / spec.stride + 1
                              : 0;
  return {lo, std::max(lo, std::min(out, fit))};
}

/// The conv passes below are templates on the kernel size: K = 0 reads it
/// from the spec at run time, and K = 3 (both paper-CNN convolutions) lets
/// the compiler turn each k-wide window row into straight-line code.
template <std::size_t K>
std::size_t kernel_of(const Conv2dSpec& spec) {
  return K != 0 ? K : spec.kernel;
}

/// The patch rows of images [first, first + count) of `input` (checked by
/// the caller), written from `out` on: row (i, oy, ox) is the receptive
/// field of output position (oy, ox) of image first + i. Windows wholly
/// inside the input copy their k-wide rows with no test; only border
/// windows check each tap.
template <std::size_t K>
void im2col_images(const Tensor& input, const Conv2dSpec& spec,
                   std::size_t first, std::size_t count, float* out) {
  const std::size_t cin = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = kernel_of<K>(spec);
  const std::size_t s = spec.stride, pad = spec.padding;
  const std::size_t patch = cin * k * k;
  const Inside ys = inside_windows(h, oh, spec, k);
  const Inside xs = inside_windows(w, ow, spec, k);
  // Interior windows [xs.lo, wide) have a fourth input column on their right.
  const std::size_t wide =
      std::min(xs.hi, inside_windows(w, ow, spec, k + 1).hi);

  const float* X = input.raw() + first * cin * h * w;
  const auto border = [&](const float* image, std::size_t oy, std::size_t ox,
                          float* row) {
    const long iy0 = static_cast<long>(oy * s) - static_cast<long>(pad);
    const long ix0 = static_cast<long>(ox * s) - static_cast<long>(pad);
    for (std::size_t ic = 0; ic < cin; ++ic) {
      const float* x = image + ic * h * w;
      for (std::size_t ky = 0; ky < k; ++ky) {
        const long iy = iy0 + static_cast<long>(ky);
        for (std::size_t kx = 0; kx < k; ++kx) {
          const long ix = ix0 + static_cast<long>(kx);
          const bool inside = iy >= 0 && iy < static_cast<long>(h) &&
                              ix >= 0 && ix < static_cast<long>(w);
          row[(ic * k + ky) * k + kx] =
              inside ? x[iy * static_cast<long>(w) + ix] : 0.0F;
        }
      }
    }
  };

  for (std::size_t img = 0; img < count; ++img) {
    const float* image = X + img * cin * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      float* rows = out + (img * oh + oy) * ow * patch;
      const bool y_inside = oy >= ys.lo && oy < ys.hi;
      const std::size_t lo = y_inside ? xs.lo : ow;
      const std::size_t hi = y_inside ? xs.hi : ow;
      for (std::size_t ox = 0; ox < lo; ++ox) {
        border(image, oy, ox, rows + ox * patch);
      }
      std::size_t ox = lo;
#if defined(__SSE2__)
      if constexpr (K == 3) {
        // Each 3-wide window row moves as one 16-byte load and store. The
        // load's fourth input is inside the row (ox < wide); the store's
        // fourth lane is the patch row's next element, which the next window
        // row overwrites, and the last window row is copied exactly, so no
        // store leaves this patch row.
        for (; ox < std::min(hi, wide); ++ox) {
          const float* x = image + (oy * s - pad) * w + (ox * s - pad);
          float* row = rows + ox * patch;
          for (std::size_t ic = 0; ic + 1 < cin; ++ic) {
            const float* src = x + ic * h * w;
            float* dst = row + ic * 9;
            _mm_storeu_ps(dst, _mm_loadu_ps(src));
            _mm_storeu_ps(dst + 3, _mm_loadu_ps(src + w));
            _mm_storeu_ps(dst + 6, _mm_loadu_ps(src + 2 * w));
          }
          const float* src = x + (cin - 1) * h * w;
          float* dst = row + (cin - 1) * 9;
          _mm_storeu_ps(dst, _mm_loadu_ps(src));
          _mm_storeu_ps(dst + 3, _mm_loadu_ps(src + w));
          std::memcpy(dst + 6, src + 2 * w, 3 * sizeof(float));
        }
      }
#endif
      for (; ox < hi; ++ox) {
        const float* x = image + (oy * s - pad) * w + (ox * s - pad);
        float* row = rows + ox * patch;
        for (std::size_t ic = 0; ic < cin; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const float* src = x + (ic * h + ky) * w;
            float* dst = row + (ic * k + ky) * k;
            if constexpr (K != 0) {
              std::memcpy(dst, src, K * sizeof(float));
            } else {
              // A plain loop: std::copy_n of a few floats is a memmove call.
              for (std::size_t kx = 0; kx < k; ++kx) dst[kx] = src[kx];
            }
          }
        }
      }
      for (std::size_t ox = hi; ox < ow; ++ox) {
        border(image, oy, ox, rows + ox * patch);
      }
    }
  }
}

/// im2col_images at the spec's kernel size.
void im2col_rows(const Tensor& input, const Conv2dSpec& spec,
                 std::size_t first, std::size_t count, float* out) {
  if (spec.kernel == 3) {
    im2col_images<3>(input, spec, first, count, out);
  } else {
    im2col_images<0>(input, spec, first, count, out);
  }
}

/// Scatter-adds the patch-matrix gradient `columns` into the zeroed input
/// gradient X [N, Cin, H, W]. Windows are visited in ascending (oy, ox)
/// order, so every pixel sums its contributions in that order from +0.0;
/// the taps of one window hit distinct pixels, so their order is free.
/// Windows wholly inside the input add their k-wide rows with no test; only
/// border windows check each tap.
template <std::size_t K>
void col2im_images(const float* columns, const Shape& input_shape,
                   const Conv2dSpec& spec, float* X) {
  const std::size_t n = input_shape[0], cin = input_shape[1];
  const std::size_t h = input_shape[2], w = input_shape[3];
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = kernel_of<K>(spec);
  const std::size_t s = spec.stride, pad = spec.padding;
  const std::size_t patch = cin * k * k;
  const Inside ys = inside_windows(h, oh, spec, k);
  const Inside xs = inside_windows(w, ow, spec, k);
  // Interior windows [xs.lo, wide) have a fourth input column on their right.
  const std::size_t wide =
      std::min(xs.hi, inside_windows(w, ow, spec, k + 1).hi);

  const auto border = [&](float* image, std::size_t oy, std::size_t ox,
                          const float* row) {
    const long iy0 = static_cast<long>(oy * s) - static_cast<long>(pad);
    const long ix0 = static_cast<long>(ox * s) - static_cast<long>(pad);
    for (std::size_t ic = 0; ic < cin; ++ic) {
      float* x = image + ic * h * w;
      for (std::size_t ky = 0; ky < k; ++ky) {
        const long iy = iy0 + static_cast<long>(ky);
        if (iy < 0 || iy >= static_cast<long>(h)) continue;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const long ix = ix0 + static_cast<long>(kx);
          if (ix < 0 || ix >= static_cast<long>(w)) continue;
          x[iy * static_cast<long>(w) + ix] += row[(ic * k + ky) * k + kx];
        }
      }
    }
  };

  for (std::size_t img = 0; img < n; ++img) {
    float* image = X + img * cin * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* rows = columns + (img * oh + oy) * ow * patch;
      const bool y_inside = oy >= ys.lo && oy < ys.hi;
      const std::size_t lo = y_inside ? xs.lo : ow;
      const std::size_t hi = y_inside ? xs.hi : ow;
      for (std::size_t ox = 0; ox < lo; ++ox) {
        border(image, oy, ox, rows + ox * patch);
      }
      std::size_t ox = lo;
#if defined(__SSE2__)
      if constexpr (K == 3) {
        // Each 3-wide window row is one 16-byte load, add and store of four
        // pixels, the fourth (inside the row, as ox < wide) stored back with
        // the bits it was loaded with. The window's last row reads only its
        // own three values and is added one pixel at a time.
        const __m128 three = _mm_castsi128_ps(_mm_setr_epi32(-1, -1, -1, 0));
        const auto add3 = [three](float* dst, const float* src) {
          const __m128 v = _mm_loadu_ps(dst);
          const __m128 sum = _mm_add_ps(v, _mm_loadu_ps(src));
          _mm_storeu_ps(dst, _mm_or_ps(_mm_and_ps(three, sum),
                                       _mm_andnot_ps(three, v)));
        };
        for (; ox < std::min(hi, wide); ++ox) {
          float* x = image + (oy * s - pad) * w + (ox * s - pad);
          const float* row = rows + ox * patch;
          for (std::size_t ic = 0; ic + 1 < cin; ++ic) {
            float* dst = x + ic * h * w;
            const float* src = row + ic * 9;
            add3(dst, src);
            add3(dst + w, src + 3);
            add3(dst + 2 * w, src + 6);
          }
          float* dst = x + (cin - 1) * h * w;
          const float* src = row + (cin - 1) * 9;
          add3(dst, src);
          add3(dst + w, src + 3);
          dst += 2 * w;
          dst[0] += src[6];
          dst[1] += src[7];
          dst[2] += src[8];
        }
      }
#endif
      for (; ox < hi; ++ox) {
        float* x = image + (oy * s - pad) * w + (ox * s - pad);
        const float* row = rows + ox * patch;
        for (std::size_t ic = 0; ic < cin; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            float* dst = x + (ic * h + ky) * w;
            const float* src = row + (ic * k + ky) * k;
            for (std::size_t kx = 0; kx < k; ++kx) dst[kx] += src[kx];
          }
        }
      }
      for (std::size_t ox = hi; ox < ow; ++ox) {
        border(image, oy, ox, rows + ox * patch);
      }
    }
  }
}

// The two reorders between the GEMM layout [N·OH·OW, Cout] and NCHW move
// 4×4 blocks through SSE registers; every element sees the same single add
// (or none) as in a scalar loop.

/// Y[oc, pos] = M[pos, oc] + b[oc] for one image: the forward GEMM's output
/// M [plane, Cout] reordered to [Cout, plane] with the bias added.
void unpack_add_bias(const float* M, const float* b, std::size_t plane,
                     std::size_t cout, float* Y) {
  std::size_t oc = 0;
#if defined(__SSE2__)
  for (; oc + 4 <= cout; oc += 4) {
    const __m128 bias = _mm_loadu_ps(b + oc);
    float* y = Y + oc * plane;
    std::size_t pos = 0;
    for (; pos + 4 <= plane; pos += 4) {
      const float* m = M + pos * cout + oc;
      __m128 r0 = _mm_add_ps(_mm_loadu_ps(m), bias);
      __m128 r1 = _mm_add_ps(_mm_loadu_ps(m + cout), bias);
      __m128 r2 = _mm_add_ps(_mm_loadu_ps(m + 2 * cout), bias);
      __m128 r3 = _mm_add_ps(_mm_loadu_ps(m + 3 * cout), bias);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      _mm_storeu_ps(y + pos, r0);
      _mm_storeu_ps(y + plane + pos, r1);
      _mm_storeu_ps(y + 2 * plane + pos, r2);
      _mm_storeu_ps(y + 3 * plane + pos, r3);
    }
    for (; pos < plane; ++pos) {
      for (std::size_t j = 0; j < 4; ++j) {
        y[j * plane + pos] = M[pos * cout + oc + j] + b[oc + j];
      }
    }
  }
#endif
  for (; oc < cout; ++oc) {
    for (std::size_t pos = 0; pos < plane; ++pos) {
      Y[oc * plane + pos] = M[pos * cout + oc] + b[oc];
    }
  }
}

/// M[pos, oc] = G[oc, pos] for one image: the output gradient [Cout, plane]
/// in the GEMM layout [plane, Cout]. The same pass adds Σ_pos G[oc, pos] into
/// db[oc], each sum taken in ascending pos from +0.0 as conv2d_backward_bias
/// takes it.
void pack_grad(const float* G, std::size_t plane, std::size_t cout, float* M,
               float* db) {
  std::size_t oc = 0;
#if defined(__SSE2__)
  for (; oc + 4 <= cout; oc += 4) {
    const float* g = G + oc * plane;
    __m128 sum = _mm_setzero_ps();  // lane j sums row oc + j
    std::size_t pos = 0;
    for (; pos + 4 <= plane; pos += 4) {
      __m128 c0 = _mm_loadu_ps(g + pos);
      __m128 c1 = _mm_loadu_ps(g + plane + pos);
      __m128 c2 = _mm_loadu_ps(g + 2 * plane + pos);
      __m128 c3 = _mm_loadu_ps(g + 3 * plane + pos);
      _MM_TRANSPOSE4_PS(c0, c1, c2, c3);  // c_i: column pos + i
      sum = _mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_add_ps(sum, c0), c1), c2),
                       c3);
      float* m = M + pos * cout + oc;
      _mm_storeu_ps(m, c0);
      _mm_storeu_ps(m + cout, c1);
      _mm_storeu_ps(m + 2 * cout, c2);
      _mm_storeu_ps(m + 3 * cout, c3);
    }
    for (; pos < plane; ++pos) {
      const __m128 c = _mm_setr_ps(g[pos], g[plane + pos], g[2 * plane + pos],
                                   g[3 * plane + pos]);
      sum = _mm_add_ps(sum, c);
      _mm_storeu_ps(M + pos * cout + oc, c);
    }
    _mm_storeu_ps(db + oc, _mm_add_ps(_mm_loadu_ps(db + oc), sum));
  }
#endif
  for (; oc < cout; ++oc) {
    const float* g = G + oc * plane;
    float sum = 0.0F;
    for (std::size_t pos = 0; pos < plane; ++pos) {
      M[pos * cout + oc] = g[pos];
      sum += g[pos];
    }
    db[oc] += sum;
  }
}

}  // namespace

void im2col_into(const Tensor& input, const Conv2dSpec& spec, float* out) {
  APPFL_CHECK_MSG(input.rank() == 4, "im2col input must be NCHW, got "
                                         << to_string(input.shape()));
  APPFL_CHECK(input.dim(1) == spec.in_channels);
  im2col_rows(input, spec, 0, input.dim(0), out);
}

Tensor im2col(const Tensor& input, const Conv2dSpec& spec) {
  APPFL_CHECK_MSG(input.rank() == 4, "im2col input must be NCHW, got "
                                         << to_string(input.shape()));
  APPFL_CHECK(input.dim(1) == spec.in_channels);
  const std::size_t n = input.dim(0);
  const std::size_t oh = spec.out_extent(input.dim(2));
  const std::size_t ow = spec.out_extent(input.dim(3));
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  Tensor columns({n * oh * ow, patch});
  im2col_into(input, spec, columns.raw());
  return columns;
}

Tensor col2im_from(const float* columns, const Shape& input_shape,
                   const Conv2dSpec& spec) {
  APPFL_CHECK(input_shape.size() == 4);
  Tensor out(input_shape);
  if (spec.kernel == 3) {
    col2im_images<3>(columns, input_shape, spec, out.raw());
  } else {
    col2im_images<0>(columns, input_shape, spec, out.raw());
  }
  return out;
}

Tensor col2im(const Tensor& columns, const Shape& input_shape,
              const Conv2dSpec& spec) {
  APPFL_CHECK(input_shape.size() == 4);
  const std::size_t n = input_shape[0];
  const std::size_t oh = spec.out_extent(input_shape[2]);
  const std::size_t ow = spec.out_extent(input_shape[3]);
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  APPFL_CHECK_MSG(columns.rank() == 2 && columns.dim(0) == n * oh * ow &&
                      columns.dim(1) == patch,
                  "col2im got " << to_string(columns.shape()));
  return col2im_from(columns.raw(), input_shape, spec);
}

std::size_t conv2d_forward_group(const Conv2dSpec& spec, std::size_t h,
                                 std::size_t w) {
  const std::size_t plane = spec.out_extent(h) * spec.out_extent(w);
  const std::size_t image_flops = plane * spec.out_channels *
                                  spec.in_channels * spec.kernel * spec.kernel;
  // The fewest images whose rows fill whole row tiles, times the fewest such
  // steps whose product clears the tiny-product cut.
  const std::size_t step = kGemmRowTile / std::gcd(plane, kGemmRowTile);
  const std::size_t step_flops = std::max<std::size_t>(1, step * image_flops);
  return step * ((kGemmTinyFlops + step_flops - 1) / step_flops);
}

Tensor conv2d_forward_gemm(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, const Conv2dSpec& spec) {
  APPFL_CHECK_MSG(input.rank() == 4, "im2col input must be NCHW, got "
                                         << to_string(input.shape()));
  APPFL_CHECK(input.dim(1) == spec.in_channels);
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t plane = spec.out_extent(h) * spec.out_extent(w);
  const std::size_t cout = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  APPFL_CHECK(weight.dim(0) == cout);
  APPFL_CHECK(bias.rank() == 1 && bias.dim(0) == cout);

  // On a pool worker (a client update or a validation task), im2col + GEMM
  // one group of images at a time, so the worker's patch matrix holds one
  // group, not the batch. Every group but the last has `group` images and
  // the last takes the remainder too: groups start at row-tile multiples
  // and each clears the tiny-product cut whenever the whole batch does, so
  // each output keeps the bits of one GEMM over the batch. Elsewhere the
  // batch is one group, whose GEMM fans its row blocks out over the kernel
  // pool.
  const std::size_t group = util::ThreadPool::on_worker_thread()
                                ? conv2d_forward_group(spec, h, w)
                                : std::max<std::size_t>(1, n);
  const std::size_t groups = std::max<std::size_t>(1, n / group);
  Tensor out({n, cout, spec.out_extent(h), spec.out_extent(w)});
  Workspace& ws = Workspace::tls();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * group;
    const std::size_t count = g + 1 < groups ? group : n - first;
    const std::size_t rows = count * plane;
    float* columns = ws.floats(kWsIm2col, rows * patch);
    im2col_rows(input, spec, first, count, columns);

    // out_mat[row, oc] = Σ_patch col[row, patch]·W[oc, patch]  (= col · Wᵀ).
    float* out_mat = ws.floats(kWsGemmAux, rows * cout);
    gemm(Trans::kNo, Trans::kYes, rows, cout, patch, columns, patch,
         weight.raw(), patch, out_mat);

    // Reorder [count·OH·OW, Cout] → [count, Cout, OH, OW], adding the bias.
    for (std::size_t img = 0; img < count; ++img) {
      unpack_add_bias(out_mat + img * plane * cout, bias.raw(), plane, cout,
                      out.raw() + (first + img) * cout * plane);
    }
  }
  return out;
}

Conv2dGrads conv2d_backward_gemm(const Tensor& grad_output,
                                 const Tensor& input, const Tensor& weight,
                                 const Conv2dSpec& spec) {
  APPFL_CHECK_MSG(input.rank() == 4, "im2col input must be NCHW, got "
                                         << to_string(input.shape()));
  APPFL_CHECK(input.dim(1) == spec.in_channels);
  const std::size_t n = input.dim(0);
  const std::size_t oh = spec.out_extent(input.dim(2));
  const std::size_t ow = spec.out_extent(input.dim(3));
  const std::size_t plane = oh * ow, rows = n * plane;
  const std::size_t cout = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  APPFL_CHECK_MSG(grad_output.shape() == (Shape{n, cout, oh, ow}),
                  "conv grad_output " << to_string(grad_output.shape())
                                      << " for input "
                                      << to_string(input.shape()));
  APPFL_CHECK(weight.size() == cout * patch);

  // One reorder of grad_output into the GEMM layout [N·OH·OW, Cout] serves
  // both products, and the bias gradient is summed in the same pass.
  Conv2dGrads grads{
      Tensor({cout, spec.in_channels, spec.kernel, spec.kernel}),
      Tensor({cout}), Tensor()};
  Workspace& ws = Workspace::tls();
  float* g_mat = ws.floats(kWsGemmAux, rows * cout);
  for (std::size_t img = 0; img < n; ++img) {
    pack_grad(grad_output.raw() + img * cout * plane, plane, cout,
              g_mat + img * plane * cout, grads.bias.raw());
  }

  // dW[oc, patch] = Σ_rows g[row, oc]·col[row, patch] = gᵀ·col.
  float* columns = ws.floats(kWsIm2col, rows * patch);
  im2col_rows(input, spec, 0, n, columns);
  gemm(Trans::kYes, Trans::kNo, cout, patch, rows, g_mat, cout, columns,
       patch, grads.weight.raw());

  // dCol[row, patch] = Σ_oc g[row, oc]·W[oc, patch] = g·W, written over the
  // patch matrix the weight product is done with.
  gemm(Trans::kNo, Trans::kNo, rows, patch, cout, g_mat, cout, weight.raw(),
       patch, columns);
  grads.input = col2im_from(columns, input.shape(), spec);
  return grads;
}

}  // namespace appfl::tensor

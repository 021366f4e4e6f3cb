#include "tensor/im2col.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace appfl::tensor {

namespace {

/// The patch rows of images [first, first + count) of `input` (checked by
/// the caller), written from `out` on: row (i, oy, ox) is the receptive
/// field of output position (oy, ox) of image first + i.
void im2col_images(const Tensor& input, const Conv2dSpec& spec,
                   std::size_t first, std::size_t count, float* out) {
  const std::size_t cin = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel;
  const std::size_t patch = cin * k * k;

  const float* X = input.raw() + first * cin * h * w;
  const long pad = static_cast<long>(spec.padding);
  const long window = static_cast<long>(k);

  for (std::size_t img = 0; img < count; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const long iy0 = static_cast<long>(oy * spec.stride) - pad;
      const bool rows_inside = iy0 >= 0 && iy0 + window <= static_cast<long>(h);
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const long ix0 = static_cast<long>(ox * spec.stride) - pad;
        float* row = out + ((img * oh + oy) * ow + ox) * patch;
        if (rows_inside && ix0 >= 0 && ix0 + window <= static_cast<long>(w)) {
          // The window lies wholly inside the input: copy its k-wide rows.
          // A plain loop, since std::copy_n of a few floats becomes a
          // memmove call per row.
          const auto y = static_cast<std::size_t>(iy0);
          const auto x0 = static_cast<std::size_t>(ix0);
          for (std::size_t ic = 0; ic < cin; ++ic) {
            const float* x = X + ((img * cin + ic) * h + y) * w + x0;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const float* src = x + ky * w;
              float* dst = row + (ic * k + ky) * k;
              for (std::size_t kx = 0; kx < k; ++kx) dst[kx] = src[kx];
            }
          }
          continue;
        }
        for (std::size_t ic = 0; ic < cin; ++ic) {
          const float* x = X + ((img * cin + ic) * h) * w;
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
      }
    }
  }
}

}  // namespace

void im2col_into(const Tensor& input, const Conv2dSpec& spec, float* out) {
  APPFL_CHECK_MSG(input.rank() == 4, "im2col input must be NCHW, got "
                                         << to_string(input.shape()));
  APPFL_CHECK(input.dim(1) == spec.in_channels);
  im2col_images(input, spec, 0, input.dim(0), out);
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
  const std::size_t n = input_shape[0], cin = input_shape[1];
  const std::size_t h = input_shape[2], w = input_shape[3];
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel;
  const std::size_t patch = cin * k * k;

  Tensor out(input_shape);
  float* X = out.raw();
  const long pad = static_cast<long>(spec.padding);

  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const long iy0 = static_cast<long>(oy * spec.stride) - pad;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const long ix0 = static_cast<long>(ox * spec.stride) - pad;
        const float* row = columns + ((img * oh + oy) * ow + ox) * patch;
        for (std::size_t ic = 0; ic < cin; ++ic) {
          float* x = X + ((img * cin + ic) * h) * w;
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
      }
    }
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
  const float* B = bias.raw();
  Workspace& ws = Workspace::tls();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * group;
    const std::size_t count = g + 1 < groups ? group : n - first;
    const std::size_t rows = count * plane;
    float* columns = ws.floats(kWsIm2col, rows * patch);
    im2col_images(input, spec, first, count, columns);

    // out_mat[row, oc] = Σ_patch col[row, patch]·W[oc, patch]  (= col · Wᵀ).
    float* out_mat = ws.floats(kWsGemmAux, rows * cout);
    gemm(Trans::kNo, Trans::kYes, rows, cout, patch, columns, patch,
         weight.raw(), patch, out_mat);

    // Reorder [count·OH·OW, Cout] → [count, Cout, OH, OW], adding the bias.
    float* Y = out.raw() + first * cout * plane;
    for (std::size_t img = 0; img < count; ++img) {
      for (std::size_t pos = 0; pos < plane; ++pos) {
        const float* src = out_mat + (img * plane + pos) * cout;
        for (std::size_t oc = 0; oc < cout; ++oc) {
          Y[(img * cout + oc) * plane + pos] = src[oc] + B[oc];
        }
      }
    }
  }
  return out;
}

namespace {

/// Reorders grad_output [N, Cout, OH, OW] into the GEMM layout
/// [N·OH·OW, Cout] used by the forward path, into a workspace buffer.
float* grad_output_as_matrix(const Tensor& grad_output, Workspace& ws) {
  const std::size_t n = grad_output.dim(0), cout = grad_output.dim(1);
  const std::size_t spatial = grad_output.dim(2) * grad_output.dim(3);
  float* mat = ws.floats(kWsGemmAux, n * spatial * cout);
  const float* G = grad_output.raw();
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t oc = 0; oc < cout; ++oc) {
      const float* src = G + (img * cout + oc) * spatial;
      for (std::size_t pos = 0; pos < spatial; ++pos) {
        mat[(img * spatial + pos) * cout + oc] = src[pos];
      }
    }
  }
  return mat;
}

}  // namespace

Tensor conv2d_backward_weight_gemm(const Tensor& grad_output,
                                   const Tensor& input,
                                   const Conv2dSpec& spec) {
  const std::size_t cout = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t rows =
      grad_output.dim(0) * grad_output.dim(2) * grad_output.dim(3);

  Workspace& ws = Workspace::tls();
  float* columns = ws.floats(kWsIm2col, rows * patch);
  im2col_into(input, spec, columns);
  const float* g_mat = grad_output_as_matrix(grad_output, ws);

  // dW[oc, patch] = Σ_rows g[row, oc]·col[row, patch] = gᵀ·col.
  Tensor dw({cout, spec.in_channels, spec.kernel, spec.kernel});
  gemm(Trans::kYes, Trans::kNo, cout, patch, rows, g_mat, cout, columns,
       patch, dw.raw());
  return dw;
}

Tensor conv2d_backward_input_gemm(const Tensor& grad_output,
                                  const Tensor& weight,
                                  const Shape& input_shape,
                                  const Conv2dSpec& spec) {
  const std::size_t cout = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t rows =
      grad_output.dim(0) * grad_output.dim(2) * grad_output.dim(3);

  Workspace& ws = Workspace::tls();
  const float* g_mat = grad_output_as_matrix(grad_output, ws);

  // dCol[row, patch] = Σ_oc g[row, oc]·W[oc, patch] = g·W.
  float* d_columns = ws.floats(kWsIm2col, rows * patch);
  gemm(Trans::kNo, Trans::kNo, rows, patch, cout, g_mat, cout, weight.raw(),
       patch, d_columns);
  return col2im_from(d_columns, input_shape, spec);
}

}  // namespace appfl::tensor

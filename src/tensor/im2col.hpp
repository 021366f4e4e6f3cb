// im2col/col2im and the GEMM-based convolution path.
//
// The classic HPC formulation: lower the convolution to a matrix multiply
// by unrolling input patches into rows ("im2col"), then run the kernel
// engine's GEMM (gemm.hpp). The patch matrix, the reordered gradient
// matrix, and the GEMM output all live in the calling thread's workspace
// arena (workspace.hpp), so repeated conv calls — every layer of every
// local step — reuse one allocation per thread instead of heap-allocating
// a fresh [N·OH·OW, Cin·K·K] matrix each time; the forward lowers a few
// images at a time. Produces results equal to the direct kernels in
// conv.hpp within float tolerance; equivalence is pinned by tests, and
// micro_substrate compares their throughput.
#pragma once

#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"

namespace appfl::tensor {

/// Unrolls input [N, Cin, H, W] into a patch matrix
/// [N·OH·OW, Cin·K·K]; row (n, oy, ox) holds the receptive field of that
/// output position (zero-padded out-of-bounds reads).
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);

/// Allocation-free flavor: writes the patch matrix into `out`, which must
/// hold N·OH·OW·Cin·K·K floats (typically a workspace buffer).
void im2col_into(const Tensor& input, const Conv2dSpec& spec, float* out);

/// Inverse scatter-add of im2col: folds a patch-matrix gradient
/// [N·OH·OW, Cin·K·K] back into an input gradient [N, Cin, H, W].
Tensor col2im(const Tensor& columns, const Shape& input_shape,
              const Conv2dSpec& spec);

/// col2im from a raw patch-matrix buffer of the same layout.
Tensor col2im_from(const float* columns, const Shape& input_shape,
                   const Conv2dSpec& spec);

/// GEMM-path forward: identical contract to conv2d_forward. On a pool
/// worker it runs im2col + GEMM over groups of conv2d_forward_group()
/// images, so the worker's patch matrix holds one group (at most the last
/// one, which also takes the batch's remainder); elsewhere it runs one
/// im2col + GEMM over the batch, whose row blocks fan out over the kernel
/// pool. Every output has the bits of one GEMM over the whole batch.
Tensor conv2d_forward_gemm(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, const Conv2dSpec& spec);

/// Images per group of conv2d_forward_gemm on H×W inputs: the fewest whose
/// patch rows are a whole multiple of kGemmRowTile and whose GEMM clears
/// kGemmTinyFlops. Row tiles then fall where they fall in one GEMM over the
/// batch, and no group drops to the reference loops unless that GEMM would.
std::size_t conv2d_forward_group(const Conv2dSpec& spec, std::size_t h,
                                 std::size_t w);

/// Gradients of one GEMM-path backward.
struct Conv2dGrads {
  Tensor weight;  // [Cout, Cin, K, K]
  Tensor bias;    // [Cout]
  Tensor input;   // the input's shape
};

/// GEMM-path backward: the gradients conv2d_backward_weight,
/// conv2d_backward_bias and conv2d_backward_input compute. One pass reorders
/// grad_output into the GEMM layout both products read and sums the bias
/// gradient, whose bits equal conv2d_backward_bias's.
Conv2dGrads conv2d_backward_gemm(const Tensor& grad_output,
                                 const Tensor& input, const Tensor& weight,
                                 const Conv2dSpec& spec);

}  // namespace appfl::tensor

// Elementwise and reduction operations on Tensors and flat float spans.
//
// The FL algorithms operate on flattened parameter vectors, so most of these
// have both a Tensor form (used by nn) and a span form (used by core/dp).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.hpp"

namespace appfl::tensor {

// -- Elementwise (Tensor) -----------------------------------------------------

/// a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

// -- Flat-span BLAS-1 ----------------------------------------------------------

/// y ← y + alpha·x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);
/// x ← alpha·x.
void scal(float alpha, std::span<float> x);
/// Σ xᵢ·yᵢ.
double dot(std::span<const float> x, std::span<const float> y);
/// ‖x‖₂.
double norm2(std::span<const float> x);
/// dst ← src (sizes must match).
void copy(std::span<const float> src, std::span<float> dst);

/// Scales x so that ‖x‖₂ ≤ max_norm (the DP gradient clip). Returns the
/// factor applied (1.0 when no clipping happened).
float clip_norm(std::span<float> x, float max_norm);

// -- Reductions / rows ----------------------------------------------------------

/// Row-wise argmax of a [rows, cols] tensor (prediction extraction).
std::vector<std::size_t> argmax_rows(const Tensor& t);

/// Numerically stable row-wise softmax of a [rows, cols] tensor.
Tensor softmax_rows(const Tensor& t);

}  // namespace appfl::tensor

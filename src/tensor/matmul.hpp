// Dense matrix multiplication for rank-2 tensors.
//
// The Linear layer's forward and backward passes need all three transpose
// variants. All of them run through the kernel execution engine's gemm()
// (gemm.hpp). The *_reference entry points call the cache-blocked scalar
// loops (gemm_reference) unconditionally — they are the parity baseline for
// tests and benchmarks.
// Shapes are checked; outputs are fresh tensors.
#pragma once

#include "tensor/tensor.hpp"

namespace appfl::tensor {

/// C[M,N] = A[M,K] · B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] = A[M,K] · B[N,K]ᵀ  (i.e. A · Bᵀ).
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// C[M,N] = A[K,M]ᵀ · B[K,N]  (i.e. Aᵀ · B).
Tensor matmul_at(const Tensor& a, const Tensor& b);

/// Reference variants: same contracts, always the scalar loops.
Tensor matmul_reference(const Tensor& a, const Tensor& b);
Tensor matmul_bt_reference(const Tensor& a, const Tensor& b);
Tensor matmul_at_reference(const Tensor& a, const Tensor& b);

}  // namespace appfl::tensor

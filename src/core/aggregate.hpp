// Parallel deterministic server-side aggregation.
//
// Every server algorithm reduces P client vectors into one model-sized
// output — the hot loop of the aggregation step at FEMNIST scale (203
// clients × the model dimension). These helpers parallelize that reduction
// over *index chunks* of the output while accumulating participants in the
// caller's order within each element. Chunking over the index axis never
// reorders any individual element's float additions, so the result is
// bit-identical to the serial loop for every thread count and chunk split —
// unlike a tree reduction over participants, which would re-associate the
// (non-associative) float sums. Work fans out over the shared kernel
// ThreadPool and degrades to serial inside pool workers, below a size
// threshold, or on a single-thread pool.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/message.hpp"

namespace appfl::core {

/// One participant of a weighted sum.
struct WeightedVec {
  std::span<const float> values;
  float weight = 1.0F;
};

/// out[i] = Σ_p weight_p · values_p[i], terms accumulated in order — the
/// FedAvg/FedProx aggregate (same per-element expression as tensor::axpy).
void weighted_sum(std::span<const WeightedVec> terms, std::span<float> out);

/// One client's (z_p, λ_p) replica pair.
struct ConsensusTerm {
  std::span<const float> primal;  // z_p
  std::span<const float> dual;    // λ_p
};

/// out[i] = Σ_p inv_p · (z_p[i] − inv_rho · λ_p[i]) — the IIADMM/ICEADMM
/// consensus line (Line 3), terms accumulated in order.
void consensus_sum(std::span<const ConsensusTerm> terms, float inv_p,
                   float inv_rho, std::span<float> out);

/// One participant of a pseudo-gradient average.
struct DeltaTerm {
  std::span<const float> values;  // z_p
  double weight = 1.0;
};

/// out[i] = Σ_p weight_p · (double(z_p[i]) − double(base[i])) — FedOpt's
/// sample-weighted pseudo-gradient, accumulated in double.
void weighted_delta(std::span<const DeltaTerm> terms,
                    std::span<const float> base, std::span<double> out);

/// Elements below which the reductions stay serial (chunk setup would cost
/// more than the arithmetic saves).
constexpr std::size_t kParallelAggregateThreshold = 16384;

// -- Streaming (fused decode→aggregate) variants ------------------------------
//
// These consume comm::WirePayload views — the float bytes exactly as they
// sit in the wire (or codec-decoded) buffer — so the payload is read once,
// during aggregation, instead of decode-then-reduce touching it twice. The
// inner loops run through the AVX2 runtime-dispatch kernels in
// tensor/accumulate.*; fp16 payloads are widened sub-chunk by sub-chunk
// into a thread-local scratch (an exact conversion), so every variant stays
// bit-identical to decoding the payloads first and calling the span form —
// at any thread count, with the same index-chunk fan-out and caller-order
// accumulation guarantee as above.

/// One streamed participant of a weighted sum.
struct StreamTerm {
  comm::WirePayload values;
  float weight = 1.0F;
};

/// Streaming weighted_sum: out[i] = Σ_p weight_p · values_p[i].
void weighted_sum_stream(std::span<const StreamTerm> terms,
                         std::span<float> out);

/// One streamed (z_p, λ_p) replica pair.
struct ConsensusStreamTerm {
  comm::WirePayload primal;
  comm::WirePayload dual;
};

/// Streaming consensus_sum: out[i] = Σ_p inv_p · (z_p[i] − inv_rho · λ_p[i]).
void consensus_sum_stream(std::span<const ConsensusStreamTerm> terms,
                          float inv_p, float inv_rho, std::span<float> out);

/// consensus_sum_stream's step over [lo, hi): adds every term into
/// out[0 .. hi-lo) in order, two terms per sweep of the output block. The
/// payloads must be float32. For server sweeps that refresh replica chunks
/// before they reduce them.
void consensus_chunk(std::span<const ConsensusStreamTerm> terms, float inv_p,
                     float inv_rho, std::size_t lo, std::size_t hi,
                     float* out);

/// One streamed participant of a pseudo-gradient average.
struct DeltaStreamTerm {
  comm::WirePayload values;
  double weight = 1.0;
};

/// Streaming weighted_delta: out[i] = Σ_p weight_p · (double(z_p[i]) −
/// double(base[i])), accumulated in double.
void weighted_delta_stream(std::span<const DeltaStreamTerm> terms,
                           std::span<const float> base, std::span<double> out);

/// Chunk of a wire payload: the [lo, hi) value range decoded into
/// `dst[0 .. hi-lo)` (memcpy for f32, exact widening for f16), for fused
/// loops that refresh a replica chunk and immediately accumulate from it.
void materialize_chunk(const comm::WirePayload& payload, std::size_t lo,
                       std::size_t hi, float* dst);

/// Throws unless update `u` carries `n` primal values, naming its sender —
/// the payload check every built-in server's aggregation body runs.
void check_update_size(const comm::GatherUpdate& u, std::size_t n);

/// Runs fn over disjoint index ranges covering [0, n) with the exact
/// fan-out policy (and therefore the exact bit-identity guarantee) the
/// reductions above use: parallel over the kernel pool when the reduction
/// is big enough, cache-sized serial blocks otherwise. For server absorb
/// loops that interleave replica refresh with accumulation. fn must write
/// each output element from exactly one range.
void for_each_chunk(std::size_t n, std::size_t num_terms,
                    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace appfl::core

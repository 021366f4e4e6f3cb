#include "core/aggregate.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "tensor/accumulate.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace appfl::core {

namespace {

/// Serial block size: the output chunk a term sweep keeps cache-hot while
/// the (much larger) participant payloads stream through once. Also the
/// granule at which fp16 payloads are widened into the thread-local
/// scratch. 32768 floats = 128 KB — measured fastest at FEMNIST scale
/// (203 clients × 1 MB): long enough runs per payload to keep the
/// prefetchers streaming, small enough that the output block stays in L2.
constexpr std::size_t kSerialBlock = 32768;

}  // namespace

// Chunked across the kernel pool when the reduction is big enough to pay
// for the fan-out, in cache-sized serial blocks otherwise. fn must be safe
// to call on disjoint ranges concurrently (each output element is written
// by exactly one range). Because every range accumulates participants in
// caller order per element, the split never changes a single bit of the
// result.
void for_each_chunk(std::size_t n, std::size_t num_terms,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n >= kParallelAggregateThreshold && num_terms >= 2 &&
      !util::ThreadPool::on_worker_thread()) {
    const auto pool = tensor::kernel_pool();
    if (pool && pool->size() > 1) {
      pool->parallel_for_range(n, fn);
      return;
    }
  }
  // Serial: iterate output blocks with the term loop inside, so the output
  // chunk stays resident while each participant's bytes stream through.
  for (std::size_t lo = 0; lo < n; lo += kSerialBlock) {
    fn(lo, std::min(lo + kSerialBlock, n));
  }
}

namespace {

/// Scratch for widening fp16 sub-chunks; thread-local so pool workers never
/// contend. Sized lazily to kSerialBlock floats.
std::vector<float>& f16_scratch() {
  thread_local std::vector<float> scratch;
  if (scratch.size() < kSerialBlock) scratch.resize(kSerialBlock);
  return scratch;
}

/// Calls op(bytes, count) over [lo, hi) of `p` with f32-encoded bytes:
/// directly for f32 payloads, via exact sub-chunk widening for f16. The
/// op's per-element arithmetic therefore sees identical float inputs either
/// way, which is what keeps the fused path bit-identical per encoding.
template <typename Op>
void for_f32_bytes(const comm::WirePayload& p, std::size_t lo, std::size_t hi,
                   std::size_t out_off, const Op& op) {
  if (p.enc == comm::WireEncoding::kF32) {
    op(p.data + 4 * lo, out_off, hi - lo);
    return;
  }
  std::vector<float>& scratch = f16_scratch();
  for (std::size_t s = lo; s < hi; s += kSerialBlock) {
    const std::size_t count = std::min(kSerialBlock, hi - s);
    tensor::widen_f16(p.data + 2 * s, scratch.data(), count);
    op(reinterpret_cast<const std::uint8_t*>(scratch.data()),
       out_off + (s - lo), count);
  }
}

}  // namespace

void weighted_sum(std::span<const WeightedVec> terms, std::span<float> out) {
  for (const auto& t : terms) APPFL_CHECK(t.values.size() == out.size());
  std::fill(out.begin(), out.end(), 0.0F);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    for (const auto& t : terms) {
      tensor::axpy_f32_bytes(
          t.weight,
          reinterpret_cast<const std::uint8_t*>(t.values.data() + lo),
          out.data() + lo, hi - lo);
    }
  });
}

void consensus_sum(std::span<const ConsensusTerm> terms, float inv_p,
                   float inv_rho, std::span<float> out) {
  for (const auto& t : terms) {
    APPFL_CHECK(t.primal.size() == out.size());
    APPFL_CHECK(t.dual.size() == out.size());
  }
  std::fill(out.begin(), out.end(), 0.0F);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    for (const auto& t : terms) {
      tensor::consensus_f32_bytes(
          inv_p, inv_rho,
          reinterpret_cast<const std::uint8_t*>(t.primal.data() + lo),
          reinterpret_cast<const std::uint8_t*>(t.dual.data() + lo),
          out.data() + lo, hi - lo);
    }
  });
}

void weighted_delta(std::span<const DeltaTerm> terms,
                    std::span<const float> base, std::span<double> out) {
  APPFL_CHECK(base.size() == out.size());
  for (const auto& t : terms) APPFL_CHECK(t.values.size() == out.size());
  std::fill(out.begin(), out.end(), 0.0);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    for (const auto& t : terms) {
      tensor::delta_f32_bytes(
          t.weight,
          reinterpret_cast<const std::uint8_t*>(t.values.data() + lo),
          base.data() + lo, out.data() + lo, hi - lo);
    }
  });
}

void weighted_sum_stream(std::span<const StreamTerm> terms,
                         std::span<float> out) {
  for (const auto& t : terms) APPFL_CHECK(t.values.count == out.size());
  std::fill(out.begin(), out.end(), 0.0F);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    // Pair adjacent raw-f32 participants so the output block is swept once
    // per pair instead of once per term; bit-identical because the paired
    // kernel performs the same two rounded additions in caller order. f16
    // payloads take the single-term path through the widening scratch.
    std::size_t t = 0;
    while (t < terms.size()) {
      if (t + 1 < terms.size() &&
          terms[t].values.enc == comm::WireEncoding::kF32 &&
          terms[t + 1].values.enc == comm::WireEncoding::kF32) {
        tensor::axpy2_f32_bytes(terms[t].weight,
                                terms[t].values.data + 4 * lo,
                                terms[t + 1].weight,
                                terms[t + 1].values.data + 4 * lo,
                                out.data() + lo, hi - lo);
        t += 2;
        continue;
      }
      const auto& term = terms[t];
      for_f32_bytes(term.values, lo, hi, lo,
                    [&](const std::uint8_t* x, std::size_t off,
                        std::size_t n) {
                      tensor::axpy_f32_bytes(term.weight, x, out.data() + off,
                                             n);
                    });
      ++t;
    }
  });
}

void consensus_sum_stream(std::span<const ConsensusStreamTerm> terms,
                          float inv_p, float inv_rho, std::span<float> out) {
  for (const auto& t : terms) {
    APPFL_CHECK(t.primal.count == out.size());
    APPFL_CHECK(t.dual.count == out.size());
    // Codecs never apply to dual-shipping algorithms, so consensus payloads
    // arrive as raw float32 — the f16 sub-chunk machinery would need two
    // scratches here and has no caller.
    APPFL_CHECK(t.primal.enc == comm::WireEncoding::kF32 &&
                t.dual.enc == comm::WireEncoding::kF32);
  }
  std::fill(out.begin(), out.end(), 0.0F);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    consensus_chunk(terms, inv_p, inv_rho, lo, hi, out.data() + lo);
  });
}

void consensus_chunk(std::span<const ConsensusStreamTerm> terms, float inv_p,
                     float inv_rho, std::size_t lo, std::size_t hi,
                     float* out) {
  // Participants go through the paired kernel two at a time (bit-identical
  // to two single sweeps in the same order) so the output block is loaded
  // and stored half as often while 2P payload streams pass through once.
  std::size_t t = 0;
  for (; t + 2 <= terms.size(); t += 2) {
    tensor::consensus2_f32_bytes(
        inv_p, inv_rho, terms[t].primal.data + 4 * lo,
        terms[t].dual.data + 4 * lo, terms[t + 1].primal.data + 4 * lo,
        terms[t + 1].dual.data + 4 * lo, out, hi - lo);
  }
  for (; t < terms.size(); ++t) {
    tensor::consensus_f32_bytes(inv_p, inv_rho, terms[t].primal.data + 4 * lo,
                                terms[t].dual.data + 4 * lo, out, hi - lo);
  }
}

void weighted_delta_stream(std::span<const DeltaStreamTerm> terms,
                           std::span<const float> base,
                           std::span<double> out) {
  APPFL_CHECK(base.size() == out.size());
  for (const auto& t : terms) APPFL_CHECK(t.values.count == out.size());
  std::fill(out.begin(), out.end(), 0.0);
  for_each_chunk(out.size(), terms.size(), [&](std::size_t lo, std::size_t hi) {
    for (const auto& t : terms) {
      for_f32_bytes(t.values, lo, hi, lo,
                    [&](const std::uint8_t* x, std::size_t off,
                        std::size_t n) {
                      tensor::delta_f32_bytes(t.weight, x, base.data() + off,
                                              out.data() + off, n);
                    });
    }
  });
}

void materialize_chunk(const comm::WirePayload& payload, std::size_t lo,
                       std::size_t hi, float* dst) {
  APPFL_CHECK(lo <= hi && hi <= payload.count);
  if (payload.enc == comm::WireEncoding::kF32) {
    std::memcpy(dst, payload.data + 4 * lo, 4 * (hi - lo));
  } else {
    tensor::widen_f16(payload.data + 2 * lo, dst, hi - lo);
  }
}

void check_update_size(const comm::GatherUpdate& u, std::size_t n) {
  APPFL_CHECK_MSG(u.primal.count == n, "update from client "
                                           << u.sender << " carries "
                                           << u.primal.count
                                           << " values, the model has " << n);
}

}  // namespace appfl::core

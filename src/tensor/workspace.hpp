// Thread-local workspace arena for kernel scratch buffers.
//
// The GEMM engine and the im2col convolution path need large transient
// buffers (packed A/B panels, the [N·OH·OW, Cin·K·K] patch matrix) on every
// layer of every local step. Allocating them fresh each call dominates the
// small-model profiles the federated experiments run at, so each thread
// keeps a grow-only arena: a buffer is requested by slot id, kept alive for
// the thread's lifetime, and reused by every subsequent kernel call that
// asks for the same slot. Buffers only ever grow, each to exactly the
// largest request its slot has seen; release() returns the memory (used by
// tests and by long-lived worker shutdown paths).
//
// Slots are coarse role ids, not per-callsite keys: two live buffers must
// use different slots, and a kernel must finish with a slot before any
// routine it calls acquires the same slot. The engine's usage is layered so
// this holds: pack buffers (A/B) are only live inside a GEMM, the im2col
// and auxiliary matrices only inside one conv kernel, and nested GEMMs
// running on the same thread (serial fallback) use the pack slots only.
#pragma once

#include <cstddef>
#include <vector>

namespace appfl::tensor {

/// Well-known arena slots. Kept small and enumerated here so disjointness
/// is auditable in one place.
inline constexpr std::size_t kWsPackA = 0;    // GEMM packed A panels
inline constexpr std::size_t kWsPackB = 1;    // GEMM packed B panels
inline constexpr std::size_t kWsIm2col = 2;   // conv patch / d_column matrix
inline constexpr std::size_t kWsGemmAux = 3;  // conv g_mat / out_mat
inline constexpr std::size_t kWorkspaceSlots = 4;

class Workspace {
 public:
  /// Returns a buffer of at least `count` floats for `slot`, growing the
  /// slot to exactly `count` if it is smaller. Contents are unspecified
  /// (previous uses of the slot leak through, and a grow keeps none of
  /// them); callers must fully overwrite what they read.
  float* floats(std::size_t slot, std::size_t count);

  /// Floats currently held by `slot`: its largest request since
  /// construction/release.
  std::size_t slot_floats(std::size_t slot) const;

  /// Total bytes currently reserved across all slots.
  std::size_t bytes_reserved() const;

  /// Number of grow events since construction/release — a reuse diagnostic:
  /// steady-state kernel loops must not increase it.
  std::size_t allocations() const { return allocations_; }

  /// Frees all backing memory (capacity drops to zero; counters reset).
  void release();

  /// The calling thread's arena. Worker threads of the kernel pool each
  /// get their own, which is what amortizes pack-buffer allocation across
  /// layers and local steps.
  static Workspace& tls();

 private:
  std::vector<std::vector<float>> slots_{kWorkspaceSlots};
  std::size_t allocations_ = 0;
};

}  // namespace appfl::tensor

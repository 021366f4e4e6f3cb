// Hierarchical aggregation topology for the population engine: participant
// slots feed leaf leaders, leaf leaders feed sub-leaders, and so on up to
// the server root — the leader/sub-leader reduce tree the Advances-in-APPFL
// scaling work uses to break the server's flat O(N) gather.
//
// The tree shapes ROUTING and COST, never ARITHMETIC. What is hierarchical:
// which mailbox each uplink lands in, which node validates/acknowledges it,
// and the simulated gather time (per-level fan-in cost, levels sequential,
// nodes within a level concurrent). What is NOT hierarchical: the numeric
// reduce. Floating-point addition is non-associative, so per-subtree partial
// sums could never be bit-identical to the flat gather; instead every
// payload ref is forwarded (zero-copy) to the root and reduced by ONE
// weighted_sum_stream over the slot-ordered terms — the same index-chunked,
// caller-order accumulation used by the flat path. Tree output is therefore
// byte-identical to the flat gather for any fan-out, depth, or thread
// count, by construction rather than by luck.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "comm/cost_model.hpp"

namespace appfl::core {

class AggTree {
 public:
  /// `num_slots` participant slots reduced with `fan_out` children per
  /// node. fan_out 0 = flat topology (every slot feeds the root directly);
  /// otherwise fan_out must be >= 2. Leaf groups are contiguous slot ranges
  /// [g·F, min((g+1)·F, k)) — slot order, and therefore reduce order, is
  /// independent of the topology.
  AggTree(std::size_t num_slots, std::size_t fan_out);

  bool flat() const { return fan_out_ == 0; }
  std::size_t num_slots() const { return num_slots_; }
  std::size_t fan_out() const { return fan_out_; }

  /// Sequential gather stages between a slot's uplink and the root holding
  /// every payload: 1 for flat, and for a tree the leaf stage plus one per
  /// sub-leader level (e.g. 1000 slots at fan-out 8 → depth 4).
  std::size_t depth() const { return level_fan_ins_.size(); }

  /// Leaf groups — one per leaf-leader mailbox.
  std::size_t num_leaf_groups() const { return num_leaf_groups_; }
  /// Slot range [begin, end) owned by leaf group `g`.
  std::pair<std::size_t, std::size_t> leaf_group(std::size_t g) const;
  /// Leaf group owning `slot`.
  std::size_t group_of(std::size_t slot) const;

  /// Per-level maximum fan-in, leaf level first, root last. Flat: {k}.
  const std::vector<std::size_t>& level_fan_ins() const {
    return level_fan_ins_;
  }

  /// Simulated seconds for the full reduce under `model`: levels run
  /// sequentially, nodes within a level concurrently, so each level costs
  /// one gather at its maximum fan-in. Flat reproduces the classic
  /// gather_seconds(k, bytes) — the Fig 3 baseline — while a tree pays
  /// depth · O(fan_out) instead of O(k), which is the whole point.
  double reduce_seconds(const comm::MpiCostModel& model,
                        std::size_t bytes_per_rank) const;

 private:
  std::size_t num_slots_ = 0;
  std::size_t fan_out_ = 0;
  std::size_t num_leaf_groups_ = 1;
  std::vector<std::size_t> level_fan_ins_;
};

}  // namespace appfl::core

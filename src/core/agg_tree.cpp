#include "core/agg_tree.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace appfl::core {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

AggTree::AggTree(std::size_t num_slots, std::size_t fan_out)
    : num_slots_(num_slots), fan_out_(fan_out) {
  APPFL_CHECK_MSG(num_slots >= 1, "an aggregation tree needs participants");
  APPFL_CHECK_MSG(fan_out == 0 || fan_out >= 2,
                  "tree fan-out must be 0 (flat) or >= 2, got " << fan_out);
  if (fan_out_ == 0) {
    num_leaf_groups_ = 1;
    level_fan_ins_ = {num_slots_};
    return;
  }
  num_leaf_groups_ = ceil_div(num_slots_, fan_out_);
  // Leaf stage, then sub-leader stages until one node holds everything.
  // A level of `width` nodes reducing into ceil(width / F) parents has
  // maximum fan-in min(width, F); the last (possibly partial) node never
  // exceeds that.
  std::size_t width = num_slots_;
  do {
    level_fan_ins_.push_back(std::min(width, fan_out_));
    width = ceil_div(width, fan_out_);
  } while (width > 1);
}

std::pair<std::size_t, std::size_t> AggTree::leaf_group(std::size_t g) const {
  APPFL_CHECK(g < num_leaf_groups_);
  if (fan_out_ == 0) return {0, num_slots_};
  const std::size_t begin = g * fan_out_;
  return {begin, std::min(begin + fan_out_, num_slots_)};
}

std::size_t AggTree::group_of(std::size_t slot) const {
  APPFL_CHECK(slot < num_slots_);
  return fan_out_ == 0 ? 0 : slot / fan_out_;
}

double AggTree::reduce_seconds(const comm::MpiCostModel& model,
                               std::size_t bytes_per_rank) const {
  double total = 0.0;
  for (const std::size_t fan_in : level_fan_ins_) {
    total += model.gather_seconds(fan_in, bytes_per_rank);
  }
  return total;
}

}  // namespace appfl::core

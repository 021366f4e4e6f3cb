#include "tensor/workspace.hpp"

#include "util/check.hpp"

namespace appfl::tensor {

float* Workspace::floats(std::size_t slot, std::size_t count) {
  APPFL_CHECK_MSG(slot < slots_.size(), "workspace slot " << slot
                                                          << " out of range");
  auto& buf = slots_[slot];
  if (buf.size() < count) {
    // A fresh exact-size buffer: resize() would copy the dead contents and
    // could round the capacity up to twice the old size.
    std::vector<float>(count).swap(buf);
    ++allocations_;
  }
  return buf.data();
}

std::size_t Workspace::slot_floats(std::size_t slot) const {
  APPFL_CHECK_MSG(slot < slots_.size(), "workspace slot " << slot
                                                          << " out of range");
  return slots_[slot].capacity();
}

std::size_t Workspace::bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& buf : slots_) total += buf.capacity() * sizeof(float);
  return total;
}

void Workspace::release() {
  // swap-with-fresh, not assign: assignment may keep the old capacity.
  std::vector<std::vector<float>>(kWorkspaceSlots).swap(slots_);
  allocations_ = 0;
}

Workspace& Workspace::tls() {
  thread_local Workspace arena;
  return arena;
}

}  // namespace appfl::tensor

#include "hw/device.hpp"

#include "nn/model_zoo.hpp"
#include "util/check.hpp"

namespace appfl::hw {

double DeviceProfile::seconds_for(double total_flops) const {
  APPFL_CHECK(effective_flops > 0.0);
  APPFL_CHECK(total_flops >= 0.0);
  return total_flops / effective_flops;
}

double local_update_flops(const nn::Module& model, std::size_t samples,
                          std::size_t local_steps) {
  // Backward costs ≈ 2× forward (grad-input + grad-weight passes), so one
  // training pass ≈ 3× forward.
  return 3.0 * model.forward_flops(1) * static_cast<double>(samples) *
         static_cast<double>(local_steps);
}

double reference_femnist_local_update_flops() {
  // Paper CNN on 1×28×28 inputs with 62 classes; ~180 samples/client, L=10.
  rng::Rng rng(0);
  const auto model = nn::paper_cnn(1, 28, 28, 62, rng);
  return local_update_flops(*model, 180, 10);
}

namespace {
// §IV-E anchors: one reference local update costs 4.24 s (A100) and 6.96 s
// (V100). Deriving throughput from the anchor keeps the ratio exactly 1.64
// regardless of how the FLOP estimate evolves.
constexpr double kA100ReferenceSeconds = 4.24;
constexpr double kV100ReferenceSeconds = 6.96;
}  // namespace

DeviceProfile a100() {
  return {"A100", reference_femnist_local_update_flops() / kA100ReferenceSeconds};
}

DeviceProfile v100() {
  return {"V100", reference_femnist_local_update_flops() / kV100ReferenceSeconds};
}

}  // namespace appfl::hw

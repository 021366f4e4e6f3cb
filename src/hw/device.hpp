// Device compute model (stand-in for real A100/V100 GPUs, §IV-E).
//
// A device is characterized by an *effective* training throughput — FLOP/s
// actually sustained by the paper's Python/PyTorch stack on small federated
// batches, far below peak. The presets are calibrated so that one FEMNIST
// local update (L=10 epochs over ~180 samples of the paper CNN) costs the
// times the paper reports: 6.96 s on a V100 and 4.24 s on an A100 (a 1.64×
// ratio). Any other workload then scales by its FLOP count.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace appfl::hw {

struct DeviceProfile {
  std::string name;
  double effective_flops = 1.0e9;  // sustained training FLOP/s

  /// Seconds to run `total_flops` of training work on this device.
  double seconds_for(double total_flops) const;
};

/// Presets calibrated to §IV-E (see device.cpp for the arithmetic).
DeviceProfile a100();
DeviceProfile v100();

/// Training FLOPs for one local update: forward + backward ≈ 3× forward,
/// over `samples`·`local_steps` sample passes of `model`.
double local_update_flops(const nn::Module& model, std::size_t samples,
                          std::size_t local_steps);

/// The reference workload the presets are calibrated against: FLOPs of one
/// FEMNIST local update (paper CNN, 62 classes, 180 samples, L=10).
double reference_femnist_local_update_flops();

}  // namespace appfl::hw

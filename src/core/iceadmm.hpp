// ICEADMM (Zhou & Li 2021, the paper's baseline [8]).
//
// Inexact consensus ADMM with L *paired* local primal/dual updates per round,
// each using the FULL-batch gradient (B_p = 1 in the paper's terminology):
//   repeat L times:
//     g ← (clipped) full-batch gradient at z
//     z ← (ρ·w + ζ·z + λ − g) / (ρ + ζ)       — closed form of eq. (4)
//     λ ← λ + ρ·(w − z)                        — eq. (3c)
// Because the client-side dual evolves with local information the server
// cannot replay, the client must ship BOTH z and λ every round — the 2×
// traffic §III-A and bench/table_comm_volume quantify.
// Server: w^{t+1} = (1/P) Σ_p (z_p − λ_p/ρ) — closed form of eq. (3a).
#pragma once

#include "core/base.hpp"
#include "core/consensus_admm.hpp"

namespace appfl::core {

class IceAdmmClient : public BaseClient {
 public:
  IceAdmmClient(std::uint32_t id, const RunConfig& config,
                const nn::Module& prototype, data::TensorDataset dataset);

  comm::Message update(std::span<const float> global,
                       std::uint32_t round) override;

  /// Client-side dual state (tests inspect it).
  const std::vector<float>& dual() const { return lambda_; }

  /// ICEADMM runs L full-batch solves per round, not L×B batched ones.
  std::size_t dp_steps_per_round() const override {
    return config().local_steps;
  }

 protected:
  void export_algo_state(ClientStateCkpt& out) const override;
  void import_algo_state(const ClientStateCkpt& s) override;

 private:
  std::vector<float> z_;       // persistent local primal
  std::vector<float> lambda_;  // persistent local dual
};

/// The consensus-ADMM server with λ_p taken from the wire.
class IceAdmmServer : public ConsensusAdmmServer {
 public:
  IceAdmmServer(const RunConfig& config, std::unique_ptr<nn::Module> model,
                data::TensorDataset test_set, std::size_t num_clients)
      : ConsensusAdmmServer(config, std::move(model), std::move(test_set),
                            num_clients, DualSource::kWire) {}
};

}  // namespace appfl::core

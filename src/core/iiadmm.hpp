// IIADMM — the paper's contribution (Algorithm 1).
//
// Improvements over ICEADMM:
//  (i)  local primal updates use mini-batches of data (lines 12–19), not the
//       full batch, so local training matches SGD-style practice;
//  (ii) the dual update λ_p ← λ_p + ρ(w^{t+1} − z_p^{t+1}) is executed
//       *identically* at both the server (line 6) and the client (line 21).
//       Since (z¹, λ¹) is shared once at start and both sides apply the same
//       arithmetic to the same inputs every round, the two dual states stay
//       bit-identical — so duals never cross the wire. Per-round client
//       upload: m floats (like FedAvg) instead of ICEADMM's 2m.
//
// Server global update (line 3): w^{t+1} = (1/P) Σ_p (z_p^t − λ_p^t / ρ).
//
// DP note: the client perturbs z_p^{t+1} (line 20's "true output") *before*
// its own dual update and sends the same perturbed vector, so server and
// client dual updates still agree exactly under differential privacy.
#pragma once

#include "core/base.hpp"
#include "core/consensus_admm.hpp"

namespace appfl::core {

class IIAdmmClient : public BaseClient {
 public:
  IIAdmmClient(std::uint32_t id, const RunConfig& config,
               const nn::Module& prototype, data::TensorDataset dataset);

  comm::Message update(std::span<const float> global,
                       std::uint32_t round) override;

  /// A lost uplink means the server never replayed this round's dual
  /// update — roll the speculative client-side dual back so both replicas
  /// keep the bit-identical-duals invariant (the round's local work is
  /// discarded, exactly as if the client had crashed before sending).
  void on_uplink_result(bool delivered) override;

  /// Client-side dual state (the dual-consistency test compares this with
  /// the server's replica).
  const std::vector<float>& dual() const { return lambda_; }

 protected:
  void export_algo_state(ClientStateCkpt& out) const override;
  void import_algo_state(const ClientStateCkpt& s) override;

 private:
  std::vector<float> lambda_;       // persistent local dual λ_p
  std::vector<float> lambda_prev_;  // pre-round λ_p, for uplink-loss rollback
};

/// The consensus-ADMM server with line 6 replayed for λ_p.
class IIAdmmServer : public ConsensusAdmmServer {
 public:
  IIAdmmServer(const RunConfig& config, std::unique_ptr<nn::Module> model,
               data::TensorDataset test_set, std::size_t num_clients)
      : ConsensusAdmmServer(config, std::move(model), std::move(test_set),
                            num_clients, DualSource::kReplay) {}
};

}  // namespace appfl::core

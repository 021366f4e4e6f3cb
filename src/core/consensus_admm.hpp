// The consensus-ADMM server shared by ICEADMM and IIADMM.
//
// Both hold one (z_p, λ_p) replica pair per client and announce line 3's
// consensus w^{t+1} = (1/P) Σ_p (z_p^t − λ_p^t / ρ) over all P pairs, stale
// ones included. They differ only in where a fresh λ_p comes from: ICEADMM
// clients ship it on the wire, while the IIADMM server replays line 6's
// dual step λ_p ← λ_p + ρ(w^{t+1} − z_p^{t+1}) from the fresh z_p. With
// adaptive ρ the server balances the round's residuals (core/adaptive.hpp)
// and announces the new ρ with the next broadcast.
#pragma once

#include "core/base.hpp"

namespace appfl::core {

class ConsensusAdmmServer : public BaseServer {
 public:
  /// Where a fresh λ_p comes from.
  enum class DualSource {
    kWire,    // ICEADMM: the update carries λ_p
    kReplay,  // IIADMM: the server replays the client's dual step
  };

  std::vector<float> compute_global(std::uint32_t round) override;
  void update(const std::vector<comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override;
  bool absorb(const comm::GatherBatch& batch, std::span<const float> global,
              std::uint32_t round) override;
  float current_rho() const override { return rho_; }

  /// The aggregation body update() and absorb() enter, and the async IIADMM
  /// policy with one arrival at a time: checks the updates, adapts ρ when
  /// enabled, then one pass over the payload bytes refreshes each sender's
  /// (z_p, λ_p) and rebuilds the consensus compute_global returns. `global`
  /// is the w the updates were trained from. No updates leaves every state
  /// as it was (straggler policy).
  void aggregate(std::span<const comm::GatherUpdate> updates,
                 std::span<const float> global, std::uint32_t round);

  /// The held consensus compute_global() returns a copy of. aggregate()
  /// with at least one update rebuilds it; empty before the first build.
  const std::vector<float>& consensus() const { return global_; }

  /// Server replica of client p's dual (1-based id; tests inspect it).
  const std::vector<float>& dual(std::uint32_t client) const;

  std::string checkpoint_kind() const override;
  ServerStateCkpt export_state() const override;
  void import_state(const ServerStateCkpt& s) override;

 protected:
  ConsensusAdmmServer(const RunConfig& config,
                      std::unique_ptr<nn::Module> model,
                      data::TensorDataset test_set, std::size_t num_clients,
                      DualSource source);

 private:
  /// One for_each_chunk pass: refreshes the fresh senders' replicas (the
  /// replayed dual step at `dual_rho`), then adds all P pairs at the
  /// current ρ into the held consensus. No fresh updates only rebuilds it.
  void sweep(std::span<const comm::GatherUpdate> fresh,
             std::span<const float> global, float dual_rho);

  DualSource source_;
  std::vector<std::vector<float>> primal_;  // z_p^t
  std::vector<std::vector<float>> dual_;    // λ_p^t
  float rho_;                               // ρ^t (adapts when enabled)
  // Consensus for the next broadcast. Empty until the first compute_global
  // after construction or import_state builds it.
  std::vector<float> global_;
};

}  // namespace appfl::core

// Server-side adaptive optimization (FedOpt family: Reddi et al. 2021).
//
// FedAvg treats the round average as the new global model. The FedOpt view
// treats Δ_t = avg_p(z_p) − w_t as a pseudo-gradient and feeds it to a
// server optimizer:
//     FedAvgM / none :  w ← w + η_s · Δ
//     FedAdagrad     :  v ← v + Δ²
//     FedYogi        :  v ← v − (1−β₂)·Δ²·sign(v − Δ²)
//     FedAdam        :  v ← β₂·v + (1−β₂)·Δ²
// all with m ← β₁·m + (1−β₁)·Δ and w ← w + η_s·m/(√v + τ).
// This addresses the paper's future-work theme of "enhancing learning
// performance by adaptively updating algorithm parameters" on the server.
#pragma once

#include "core/base.hpp"
#include "core/config.hpp"

namespace appfl::core {

enum class ServerOpt { kNone, kAdagrad, kAdam, kYogi };

std::string to_string(ServerOpt opt);

struct ServerOptConfig {
  ServerOpt kind = ServerOpt::kAdam;
  float lr = 0.1F;       // η_s
  float beta1 = 0.9F;    // momentum on Δ
  float beta2 = 0.99F;   // second-moment decay (Adam/Yogi)
  float tau = 1e-3F;     // adaptivity floor in the denominator
};

/// FedAvg clients + an adaptive server. Use with Algorithm::kFedAvg clients
/// (primal-only updates); plugs into run_federated like any BaseServer.
class FedOptServer : public BaseServer {
 public:
  FedOptServer(const RunConfig& config, ServerOptConfig opt,
               std::unique_ptr<nn::Module> model, data::TensorDataset test_set,
               std::size_t num_clients);

  std::vector<float> compute_global(std::uint32_t round) override;
  void update(const std::vector<comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override;
  bool absorb(const comm::GatherBatch& batch, std::span<const float> global,
              std::uint32_t round) override;

  const ServerOptConfig& opt() const { return opt_; }

  std::string checkpoint_kind() const override { return "fedopt"; }
  ServerStateCkpt export_state() const override;
  void import_state(const ServerStateCkpt& s) override;

 private:
  /// The aggregation body update() and absorb() enter: checks the round's
  /// updates, streams the pseudo-gradient Δ out of their payload bytes in
  /// one pass, then takes the optimizer step. No updates, no step.
  void aggregate(std::span<const comm::GatherUpdate> updates,
                 std::span<const float> global, std::uint32_t round);
  /// The server-optimizer step on the reduced Δ.
  void apply_pseudo_gradient(std::span<const double> delta);

  ServerOptConfig opt_;
  std::vector<float> w_;        // the server-held global model
  std::vector<float> m_;        // first moment of Δ
  std::vector<float> v_;        // second moment of Δ
};

}  // namespace appfl::core

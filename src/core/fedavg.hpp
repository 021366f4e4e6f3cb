// FedAvg (McMahan et al. 2017).
//
// Server: w^{t+1} = Σ_p (I_p/I) z_p^t (or a plain 1/P average — Algorithm 1's
// form — when weighted_aggregation is off).
// Client: L epochs of mini-batch SGD with momentum starting from w^{t+1};
// ships the primal iterate only. §III-A notes FedAvg is the λ=0, ζ=0,
// ρ=1/η special case of the IADMM family — a property test pins this.
#pragma once

#include "core/base.hpp"
#include "nn/sgd.hpp"

namespace appfl::core {

class FedAvgClient : public BaseClient {
 public:
  using BaseClient::BaseClient;

  comm::Message update(std::span<const float> global,
                       std::uint32_t round) override;
};

class FedAvgServer : public BaseServer {
 public:
  FedAvgServer(const RunConfig& config, std::unique_ptr<nn::Module> model,
               data::TensorDataset test_set, std::size_t num_clients);

  std::vector<float> compute_global(std::uint32_t round) override;
  void update(const std::vector<comm::Message>& locals,
              std::span<const float> global, std::uint32_t round) override;
  bool absorb(const comm::GatherBatch& batch, std::span<const float> global,
              std::uint32_t round) override;

  std::string checkpoint_kind() const override { return "fedavg"; }
  ServerStateCkpt export_state() const override;
  void import_state(const ServerStateCkpt& s) override;

 private:
  /// The aggregation body update() and absorb() enter: checks the round's
  /// updates, then one pass over the payload bytes refreshes each sender's
  /// z_p replica and adds it into the weighted mean compute_global
  /// returns. No updates leaves every state as it was (straggler policy).
  void aggregate(std::span<const comm::GatherUpdate> updates,
                 std::uint32_t round);
  /// One for_each_chunk pass over the last participants: refreshes each
  /// fresh replica (fresh[i] is participant i), then adds it into global_.
  /// No fresh updates only rebuilds global_.
  void sweep(std::span<const comm::GatherUpdate> fresh);

  std::vector<std::vector<float>> primal_;     // z_p^t per client
  std::vector<std::uint64_t> sample_counts_;   // I_p per client
  // Clients that reported in the most recent round; under partial
  // participation FedAvg averages exactly these (McMahan et al.).
  std::vector<std::size_t> last_participants_;
  // Weighted mean for the next broadcast. Empty until the first
  // compute_global after construction or import_state builds it.
  std::vector<float> global_;
};

}  // namespace appfl::core

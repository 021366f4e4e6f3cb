// BaseServer / BaseClient — the plug-in API of the framework (paper §II-A1):
// "Additional user-defined FL algorithms can be implemented by inheriting our
// class BaseServer and implementing the virtual function update()"; likewise
// for BaseClient. FedAvg/ICEADMM/IIADMM are implemented against exactly this
// interface, and examples/custom_algorithm.cpp shows a user-defined one.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/message.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "dp/mechanism.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "rng/rng.hpp"

namespace appfl::core {

/// Client-side half of an FL algorithm. Owns a model replica and the
/// client's private dataset; produces one local update per round.
class BaseClient {
 public:
  /// `id` is the 1-based endpoint id; `prototype` provides the architecture
  /// and initial weights (cloned, never shared afterwards).
  BaseClient(std::uint32_t id, const RunConfig& config,
             const nn::Module& prototype, data::TensorDataset dataset);
  virtual ~BaseClient() = default;

  BaseClient(const BaseClient&) = delete;
  BaseClient& operator=(const BaseClient&) = delete;

  /// The algorithm step: consume the broadcast global parameters, train
  /// locally, and return the (possibly DP-perturbed) update message.
  virtual comm::Message update(std::span<const float> global,
                               std::uint32_t round) = 0;

  /// Entry point used by the runner: unpacks protocol metadata carried by
  /// the broadcast (e.g. the adaptive ρ^t in force this round) and then
  /// delegates to update().
  comm::Message handle_global(const comm::Message& global);

  /// Transport feedback, called by the runner after the uplink send with
  /// delivered = false when this round's update never reached the server
  /// (dropped after all retransmits, or landed past the gather deadline).
  /// Algorithms whose server keeps a bit-identical state replica override
  /// this to roll back speculative state — IIADMM reverts its client-side
  /// dual so both replicas stay in the last mutually-observed round.
  /// Default: no-op.
  virtual void on_uplink_result(bool /*delivered*/) {}

  std::uint32_t id() const { return id_; }
  std::size_t num_samples() const { return dataset_.size(); }
  std::size_t num_parameters() { return model_->num_parameters(); }

  /// Resumable snapshot at a round boundary: loader epoch counter plus the
  /// algorithm's persistent vectors (export_algo_state). dp_spent is owned
  /// by the runner's accountant and left at 0 here.
  ClientStateCkpt export_state() const;

  /// Restores a snapshot taken by export_state on an identically-constructed
  /// client (same id/config/data/seed). The data loader is fast-forwarded by
  /// replaying its epoch advances, which reproduces both its RNG state and
  /// its batch order exactly. Throws appfl::Error on an id mismatch or a
  /// snapshot older than this client's current position.
  void import_state(const ClientStateCkpt& s);

  /// Mean training loss observed during the most recent update().
  double last_loss() const { return last_loss_; }

 protected:
  /// Resets the per-round state (loss average, DP step counter). Algorithm
  /// implementations call this at the top of update().
  void begin_round(std::uint32_t round);

  /// Sets model parameters to `z`, runs forward/backward on `batch`, and
  /// returns the flat gradient (clipped to config.clip when enabled). In
  /// gradient-perturbation mode the clipped gradient is additionally
  /// noised with this step's share of the round's ε budget. Adds the
  /// batch's mean loss into the running last_loss_ average.
  std::vector<float> batch_gradient(std::span<const float> z,
                                    const data::Batch& batch);

  /// Output perturbation (§III-B): applies the configured mechanism to
  /// `values`. No-op when ε = ∞ or in gradient-perturbation mode (the noise
  /// was already injected per step). The noise stream is deterministic in
  /// (seed, client, round).
  void apply_dp(std::vector<float>& values, std::uint32_t round);

  /// Local solves per round for ε-splitting in gradient mode. Default:
  /// local_steps × batches-per-epoch; full-batch algorithms override.
  virtual std::size_t dp_steps_per_round() const;

  /// Algorithm-specific halves of export_state/import_state: fill/restore
  /// the persistent primal/dual vectors. Default: stateless client (FedAvg,
  /// FedProx — their momentum does not persist across rounds).
  virtual void export_algo_state(ClientStateCkpt& /*out*/) const {}
  virtual void import_algo_state(const ClientStateCkpt& /*s*/) {}

  const RunConfig& config() const { return config_; }
  nn::Module& model() { return *model_; }
  data::DataLoader& loader() { return loader_; }
  const data::TensorDataset& dataset() const { return dataset_; }

  /// Penalty ρ in force for the current round: the value broadcast by the
  /// server when adaptive ρ is on, the configured constant otherwise.
  float round_rho() const { return round_rho_; }

 private:
  void reset_loss_average();

  std::uint32_t id_;
  RunConfig config_;
  data::TensorDataset dataset_;
  std::unique_ptr<nn::Module> model_;
  data::DataLoader loader_;
  nn::CrossEntropyLoss criterion_;
  std::unique_ptr<dp::Mechanism> mechanism_;
  float round_rho_;
  double last_loss_ = 0.0;
  std::size_t loss_batches_ = 0;
  std::uint32_t current_round_ = 0;
  std::size_t dp_step_ = 0;  // per-round gradient-noise step counter
};

/// Server-side half. Maintains the global model and per-client state, and
/// validates against the server-held test set (§II-A5).
class BaseServer {
 public:
  BaseServer(const RunConfig& config, std::unique_ptr<nn::Module> model,
             data::TensorDataset test_set, std::size_t num_clients);
  virtual ~BaseServer() = default;

  BaseServer(const BaseServer&) = delete;
  BaseServer& operator=(const BaseServer&) = delete;

  /// Computes w^{t+1} from the server's current state (eq. (3a) for the
  /// ADMM family; the aggregation rule for FedAvg).
  virtual std::vector<float> compute_global(std::uint32_t round) = 0;

  /// Absorbs the gathered local updates into server state (z_p, λ_p, ...).
  /// `global` is the w^{t+1} that was broadcast this round. The plug-in
  /// point of the paper's API: a server that implements only this still
  /// runs in every sync loop.
  virtual void update(const std::vector<comm::Message>& locals,
                      std::span<const float> global, std::uint32_t round) = 0;

  /// Absorbs a GatherBatch whose float payloads are still wire-resident,
  /// updating server state and the next aggregate in one pass over the
  /// bytes. Returns false when this server has no such entry; the runner
  /// then materializes the batch with take_messages() and calls update().
  /// The built-in servers run one aggregation body behind both entries, so
  /// they always absorb, and a malformed update throws whichever entry it
  /// came in by.
  virtual bool absorb(const comm::GatherBatch& /*batch*/,
                      std::span<const float> /*global*/,
                      std::uint32_t /*round*/) {
    return false;
  }

  /// Validation of `w` on the server-held test set: core/evaluation.hpp's
  /// validation loop over the server's model at config.validate_batch. Its
  /// tasks may run beside client updates; nothing writes the server's model.
  std::size_t validation_tasks() const;
  std::size_t count_correct(std::span<const float> w, std::size_t task) const;
  double accuracy(std::span<const std::size_t> correct) const;

  /// Accuracy of parameters `w` on the server-held test set: every
  /// validation task, run inline on the calling thread.
  double validate(std::span<const float> w) const;

  /// Penalty ρ^t the server will announce with the next broadcast. The
  /// base implementation returns the configured constant; adaptive servers
  /// override it.
  virtual float current_rho() const;

  std::size_t num_clients() const { return num_clients_; }
  std::size_t num_parameters() { return model_->num_parameters(); }

  /// Tag naming this server's resumable-state schema ("fedavg", "iceadmm",
  /// "iiadmm", "fedopt"). Cross-checked on import so a checkpoint never
  /// restores into the wrong algorithm. Custom servers that do not override
  /// the state hooks keep the default and cannot be resumed.
  virtual std::string checkpoint_kind() const { return "custom"; }

  /// Resumable snapshot of server-side algorithm state at a round boundary.
  /// The default exports only the kind tag (stateless server).
  virtual ServerStateCkpt export_state() const;

  /// Restores a snapshot from export_state. Throws appfl::Error when the
  /// snapshot's kind does not match checkpoint_kind().
  virtual void import_state(const ServerStateCkpt& s);

  /// Initial flat parameters (the shared starting point z¹).
  std::vector<float> initial_parameters() { return model_->flat_parameters(); }

 protected:
  const RunConfig& config() const { return config_; }
  nn::Module& model() { return *model_; }

 private:
  RunConfig config_;
  std::unique_ptr<nn::Module> model_;
  data::TensorDataset test_set_;
  std::size_t num_clients_;
};

}  // namespace appfl::core

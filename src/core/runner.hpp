// FederatedRunner: the orchestration loop (paper Fig. 1's outer structure).
//
// Per round t = 1..T:
//   1. server computes w^{t+1} and broadcasts it through the Communicator;
//   2. every client (in parallel, on the thread pool — the MPI-rank
//      multiplexing of §IV-C) receives w^{t+1}, runs its local update, and
//      sends the result;
//   3. the server gathers all P updates (advancing the simulated comm clock)
//      and absorbs them;
//   4. optional validation of w^{t+1} on the server-held test set.
// All parameter exchange genuinely crosses the Communicator (encode/decode),
// so the traffic and timing ledgers are measurements, not estimates.
#pragma once

#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "core/base.hpp"
#include "core/config.hpp"
#include "core/secure_round.hpp"
#include "data/synth.hpp"
#include "util/thread_pool.hpp"

namespace appfl::core {

/// One row of the learning curve.
struct RoundMetrics {
  std::uint32_t round = 0;
  double train_loss = 0.0;     // sample-weighted mean of client losses
  double test_accuracy = 0.0;  // −1 when validation was skipped this round
  double broadcast_s = 0.0;    // simulated
  double gather_s = 0.0;       // simulated
  double rho = 0.0;            // penalty ρ^t broadcast this round
  std::size_t participants = 0;  // clients sampled this round
  std::size_t responders = 0;    // updates that survived the network
  // Per-round deltas of the fault-plane counters (all zero when the fault
  // plane is inactive).
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t discards = 0;
  std::uint64_t timeouts = 0;
  // Secure-aggregation outcomes (zero when RunConfig::secure_agg is off).
  /// Dropped clients (U2 \ U3) whose pairwise masks were reconstructed.
  std::uint64_t secagg_reconstructions = 0;
  /// True when fewer than t uploads survived: the round was skipped
  /// (model unchanged) instead of unmasked.
  bool secagg_degraded = false;
  /// Why (kNone unless secagg_degraded).
  SecaggDegradeReason secagg_degrade_reason = SecaggDegradeReason::kNone;
};

struct RunResult {
  std::vector<RoundMetrics> rounds;
  comm::TrafficStats traffic;
  std::vector<comm::RoundCommRecord> comm_rounds;
  double final_accuracy = 0.0;
  double sim_comm_seconds = 0.0;
  std::size_t model_parameters = 0;

  /// The final global model (what chaos tests byte-compare across resumes).
  std::vector<float> final_parameters;

  /// Largest cumulative ε spent by any client (0 when ε = ∞ throughout).
  double dp_epsilon_spent = 0.0;
  /// Round the run resumed after (0 = fresh start).
  std::uint32_t resumed_from_round = 0;
  /// Round checkpoints written by this process.
  std::size_t checkpoints_written = 0;

  /// The config the run used: the caller's, after the env pass.
  RunConfig config;

  /// Secure-aggregation run totals (sums of the per-round fields).
  std::uint64_t secagg_reconstructions = 0;
  std::uint64_t secagg_rounds_degraded = 0;

  /// Mean / best of the per-round test accuracies over the rounds that
  /// actually validated. RoundMetrics::test_accuracy uses −1 as the
  /// "validation skipped" sentinel; those rounds are MISSING data, not
  /// zeros, and must never enter an average. Returns −1 when no round
  /// validated (the same sentinel, so exporters render it as null).
  double mean_test_accuracy() const;
  double best_test_accuracy() const;
};

/// Builds the model prescribed by `config` for the given data shape.
std::unique_ptr<nn::Module> build_model(const RunConfig& config,
                                        const data::TensorDataset& reference);

/// Factory for the algorithm's server (plug-in point for Table I's rows).
std::unique_ptr<BaseServer> build_server(const RunConfig& config,
                                         std::unique_ptr<nn::Module> model,
                                         data::TensorDataset test_set,
                                         std::size_t num_clients);

/// Factory for one client.
std::unique_ptr<BaseClient> build_client(std::uint32_t id,
                                         const RunConfig& config,
                                         const nn::Module& prototype,
                                         data::TensorDataset dataset);

/// Runs a full federated experiment on a federated split. Both overloads
/// apply the APPFL_* env pass (core/options.hpp) to `config` first.
RunResult run_federated(const RunConfig& config,
                        const data::FederatedSplit& split);

/// As above, but with caller-provided server/clients (for user-defined
/// algorithms built on BaseServer/BaseClient — see examples/).
RunResult run_federated(const RunConfig& config, BaseServer& server,
                        std::vector<std::unique_ptr<BaseClient>>& clients);

}  // namespace appfl::core

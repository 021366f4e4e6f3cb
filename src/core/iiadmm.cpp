#include "core/iiadmm.hpp"

#include "util/check.hpp"

namespace appfl::core {

IIAdmmClient::IIAdmmClient(std::uint32_t id, const RunConfig& config,
                           const nn::Module& prototype,
                           data::TensorDataset dataset)
    : BaseClient(id, config, prototype, std::move(dataset)) {
  lambda_.assign(model().num_parameters(), 0.0F);  // λ¹ = 0
}

comm::Message IIAdmmClient::update(std::span<const float> global,
                                   std::uint32_t round) {
  begin_round(round);
  const std::size_t m = lambda_.size();
  APPFL_CHECK(global.size() == m);
  const float rho = round_rho();  // the ρ^t announced with this broadcast
  const float zeta = config().zeta;
  const float inv = 1.0F / (rho + zeta);

  // Line 11: z^{1,1} ← w^{t+1}.
  std::vector<float> z(global.begin(), global.end());

  // Lines 13–19: L sweeps over the mini-batches (lines 12's split is the
  // DataLoader's shuffled batching).
  for (std::size_t step = 0; step < config().local_steps; ++step) {
    for (std::size_t b = 0; b < loader().num_batches(); ++b) {
      const data::Batch batch = loader().batch(b);
      const std::vector<float> g = batch_gradient(z, batch);
      // Line 16: z ← z − (g − λ − ρ(w − z)) / (ρ + ζ).
      for (std::size_t i = 0; i < m; ++i) {
        z[i] -= (g[i] - lambda_[i] - rho * (global[i] - z[i])) * inv;
      }
    }
    loader().next_epoch();
  }

  // Line 20's output, perturbed (§III-B) BEFORE the dual update so server
  // and client duals remain identical under DP.
  apply_dp(z, round);

  // Line 21: client-side dual update. The pre-update dual is kept so a
  // lost uplink (on_uplink_result(false)) can rewind this speculation.
  lambda_prev_ = lambda_;
  for (std::size_t i = 0; i < m; ++i) {
    lambda_[i] += rho * (global[i] - z[i]);
  }

  comm::Message msg;
  msg.kind = comm::MessageKind::kLocalUpdate;
  msg.sender = id();
  msg.receiver = 0;
  msg.round = round;
  msg.primal = std::move(z);  // primal only — no dual on the wire
  msg.sample_count = num_samples();
  msg.loss = last_loss();
  return msg;
}

void IIAdmmClient::on_uplink_result(bool delivered) {
  if (!delivered && !lambda_prev_.empty()) lambda_ = lambda_prev_;
}

void IIAdmmClient::export_algo_state(ClientStateCkpt& out) const {
  out.dual = lambda_;
}

void IIAdmmClient::import_algo_state(const ClientStateCkpt& s) {
  APPFL_CHECK(s.dual.size() == lambda_.size());
  lambda_ = s.dual;
  // lambda_prev_ only matters between update() and on_uplink_result()
  // within one round; a round-boundary snapshot never carries it.
  lambda_prev_.clear();
}

}  // namespace appfl::core

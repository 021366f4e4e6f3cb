#include "core/iceadmm.hpp"

#include "util/check.hpp"

namespace appfl::core {

IceAdmmClient::IceAdmmClient(std::uint32_t id, const RunConfig& config,
                             const nn::Module& prototype,
                             data::TensorDataset dataset)
    : BaseClient(id, config, prototype, std::move(dataset)) {
  z_ = model().flat_parameters();      // z¹ = shared initial point
  lambda_.assign(z_.size(), 0.0F);     // λ¹ = 0
}

comm::Message IceAdmmClient::update(std::span<const float> global,
                                    std::uint32_t round) {
  begin_round(round);
  const std::size_t m = z_.size();
  APPFL_CHECK(global.size() == m);
  const float rho = round_rho();  // the ρ^t announced with this broadcast
  const float zeta = config().zeta;
  const float inv = 1.0F / (rho + zeta);

  // All data points form one full batch ("all data points are used for
  // calculating a gradient in ICEADMM as implemented in [8]").
  const data::Batch full = dataset().all();

  for (std::size_t step = 0; step < config().local_steps; ++step) {
    const std::vector<float> g = batch_gradient(z_, full);
    for (std::size_t i = 0; i < m; ++i) {
      z_[i] = (rho * global[i] + zeta * z_[i] + lambda_[i] - g[i]) * inv;
    }
    for (std::size_t i = 0; i < m; ++i) {
      lambda_[i] += rho * (global[i] - z_[i]);
    }
  }

  // Output perturbation on the primal (the "true output" of §III-B).
  apply_dp(z_, round);

  comm::Message msg;
  msg.kind = comm::MessageKind::kLocalUpdate;
  msg.sender = id();
  msg.receiver = 0;
  msg.round = round;
  msg.primal = z_;
  msg.dual = lambda_;  // ICEADMM's extra traffic: duals ride along
  msg.sample_count = num_samples();
  msg.loss = last_loss();
  return msg;
}

void IceAdmmClient::export_algo_state(ClientStateCkpt& out) const {
  out.primal = z_;
  out.dual = lambda_;
}

void IceAdmmClient::import_algo_state(const ClientStateCkpt& s) {
  APPFL_CHECK(s.primal.size() == z_.size() && s.dual.size() == lambda_.size());
  z_ = s.primal;
  lambda_ = s.dual;
}

}  // namespace appfl::core

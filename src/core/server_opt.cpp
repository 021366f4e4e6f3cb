#include "core/server_opt.hpp"

#include <cmath>

#include "core/aggregate.hpp"
#include "util/check.hpp"

namespace appfl::core {

std::string to_string(ServerOpt opt) {
  switch (opt) {
    case ServerOpt::kNone: return "none";
    case ServerOpt::kAdagrad: return "FedAdagrad";
    case ServerOpt::kAdam: return "FedAdam";
    case ServerOpt::kYogi: return "FedYogi";
  }
  return "?";
}

FedOptServer::FedOptServer(const RunConfig& config, ServerOptConfig opt,
                           std::unique_ptr<nn::Module> model,
                           data::TensorDataset test_set,
                           std::size_t num_clients)
    : BaseServer(config, std::move(model), std::move(test_set), num_clients),
      opt_(opt) {
  APPFL_CHECK_MSG(config.algorithm == Algorithm::kFedAvg ||
                      config.algorithm == Algorithm::kFedProx,
                  "FedOptServer expects FedAvg-style (primal-only) clients");
  APPFL_CHECK(opt_.lr > 0.0F);
  APPFL_CHECK(opt_.beta1 >= 0.0F && opt_.beta1 < 1.0F);
  APPFL_CHECK(opt_.beta2 >= 0.0F && opt_.beta2 < 1.0F);
  APPFL_CHECK(opt_.tau > 0.0F);
  w_ = BaseServer::initial_parameters();
  m_.assign(w_.size(), 0.0F);
  v_.assign(w_.size(), 0.0F);
}

std::vector<float> FedOptServer::compute_global(std::uint32_t) { return w_; }

void FedOptServer::update(const std::vector<comm::Message>& locals,
                          std::span<const float> global, std::uint32_t round) {
  aggregate(comm::gather_views(locals), global, round);
}

bool FedOptServer::absorb(const comm::GatherBatch& batch,
                          std::span<const float> global, std::uint32_t round) {
  aggregate(batch.updates(), global, round);
  return true;
}

void FedOptServer::aggregate(std::span<const comm::GatherUpdate> updates,
                             std::span<const float> global,
                             std::uint32_t round) {
  // Straggler policy: no surviving updates ⇒ no pseudo-gradient step.
  if (updates.empty()) return;
  APPFL_CHECK(updates.size() <= num_clients());
  const std::size_t n = w_.size();
  std::uint64_t total_samples = 0;
  for (const auto& u : updates) {
    APPFL_CHECK_MSG(u.round == round, "stale update from " << u.sender);
    APPFL_CHECK_MSG(u.dual.empty(), "FedOpt expects primal-only updates");
    check_update_size(u, n);
    total_samples += u.sample_count;
  }
  APPFL_CHECK(total_samples > 0);
  // Pseudo-gradient: sample-weighted mean of (z_p − w) over this round's
  // participants (global == w_ at broadcast time).
  std::vector<DeltaStreamTerm> terms;
  terms.reserve(updates.size());
  for (const auto& u : updates) {
    const double weight = config().weighted_aggregation
                              ? static_cast<double>(u.sample_count) /
                                    static_cast<double>(total_samples)
                              : 1.0 / static_cast<double>(updates.size());
    terms.push_back({u.primal, weight});
  }
  std::vector<double> delta(n, 0.0);
  weighted_delta_stream(terms, global, delta);
  apply_pseudo_gradient(delta);
}

void FedOptServer::apply_pseudo_gradient(std::span<const double> delta) {
  const std::size_t n = w_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float d = static_cast<float>(delta[i]);
    m_[i] = opt_.beta1 * m_[i] + (1.0F - opt_.beta1) * d;
    const float d2 = d * d;
    switch (opt_.kind) {
      case ServerOpt::kNone:
        // Plain (momentum-free when β₁ = 0) server step: w += η_s·Δ.
        w_[i] += opt_.lr * (opt_.beta1 > 0.0F ? m_[i] : d);
        continue;
      case ServerOpt::kAdagrad:
        v_[i] += d2;
        break;
      case ServerOpt::kAdam:
        v_[i] = opt_.beta2 * v_[i] + (1.0F - opt_.beta2) * d2;
        break;
      case ServerOpt::kYogi: {
        const float sign = v_[i] > d2 ? 1.0F : (v_[i] < d2 ? -1.0F : 0.0F);
        v_[i] -= (1.0F - opt_.beta2) * d2 * sign;
        break;
      }
    }
    w_[i] += opt_.lr * m_[i] / (std::sqrt(v_[i]) + opt_.tau);
  }
}

ServerStateCkpt FedOptServer::export_state() const {
  ServerStateCkpt s = BaseServer::export_state();
  s.opt_w = w_;
  s.opt_m = m_;
  s.opt_v = v_;
  return s;
}

void FedOptServer::import_state(const ServerStateCkpt& s) {
  BaseServer::import_state(s);
  APPFL_CHECK_MSG(s.opt_w.size() == w_.size() && s.opt_m.size() == m_.size() &&
                      s.opt_v.size() == v_.size(),
                  "FedOpt checkpoint holds " << s.opt_w.size()
                      << " parameters, server has " << w_.size());
  w_ = s.opt_w;
  m_ = s.opt_m;
  v_ = s.opt_v;
}

}  // namespace appfl::core

#include "core/consensus_admm.hpp"

#include <algorithm>
#include <cmath>

#include "core/adaptive.hpp"
#include "core/aggregate.hpp"
#include "tensor/accumulate.hpp"
#include "util/check.hpp"

namespace appfl::core {

namespace {

/// Values of one payload the residual pre-pass decodes at a time.
constexpr std::size_t kResidualBlock = 4096;

}  // namespace

ConsensusAdmmServer::ConsensusAdmmServer(const RunConfig& config,
                                         std::unique_ptr<nn::Module> model,
                                         data::TensorDataset test_set,
                                         std::size_t num_clients,
                                         DualSource source)
    : BaseServer(config, std::move(model), std::move(test_set), num_clients),
      source_(source),
      rho_(config.rho) {
  // Every client starts from the shared pair (z¹, λ¹ = 0).
  primal_.assign(num_clients, BaseServer::initial_parameters());
  dual_.assign(num_clients, std::vector<float>(primal_.front().size(), 0.0F));
}

std::vector<float> ConsensusAdmmServer::compute_global(std::uint32_t) {
  if (global_.empty()) sweep({}, {}, rho_);
  return global_;
}

void ConsensusAdmmServer::update(const std::vector<comm::Message>& locals,
                                 std::span<const float> global,
                                 std::uint32_t round) {
  aggregate(comm::gather_views(locals), global, round);
}

bool ConsensusAdmmServer::absorb(const comm::GatherBatch& batch,
                                 std::span<const float> global,
                                 std::uint32_t round) {
  aggregate(batch.updates(), global, round);
  return true;
}

void ConsensusAdmmServer::aggregate(
    std::span<const comm::GatherUpdate> updates, std::span<const float> global,
    std::uint32_t round) {
  // Straggler policy: an absent client keeps its previous (z_p, λ_p). An
  // ICEADMM pair arrived together; IIADMM's dual step runs on both sides,
  // and a client whose uplink was lost rolls its own back
  // (IIAdmmClient::on_uplink_result), so a stale pair stays consistent.
  if (updates.empty()) return;
  APPFL_CHECK(updates.size() <= num_clients());
  const std::size_t n = primal_.front().size();
  for (const auto& u : updates) {
    APPFL_CHECK_MSG(u.round == round, "stale update from client " << u.sender);
    APPFL_CHECK(u.sender >= 1 && u.sender <= num_clients());
    if (source_ == DualSource::kWire) {
      APPFL_CHECK_MSG(!u.dual.empty(),
                      "ICEADMM requires clients to ship dual variables");
      APPFL_CHECK(u.dual.count == u.primal.count);
    } else {
      APPFL_CHECK_MSG(u.dual.empty(),
                      "IIADMM clients must not ship duals — that is the point");
    }
    check_update_size(u, n);
  }
  if (source_ == DualSource::kReplay || config().adaptive_rho) {
    APPFL_CHECK(global.size() == n);
  }
  const float rho = rho_;  // the ρ^t the clients just used
  if (config().adaptive_rho) {
    // Residual balancing compares each fresh z_p with w and with the
    // replica it replaces, so it reads them before the sweep overwrites it.
    double primal_residual = 0.0;
    double dual_residual = 0.0;
    std::vector<float> z(std::min(n, kResidualBlock));
    for (const auto& u : updates) {
      const std::vector<float>& prev = primal_[u.sender - 1];
      double r2 = 0.0, s2 = 0.0;
      for (std::size_t lo = 0; lo < n; lo += z.size()) {
        const std::size_t hi = std::min(lo + z.size(), n);
        materialize_chunk(u.primal, lo, hi, z.data());
        for (std::size_t i = lo; i < hi; ++i) {
          const double r = static_cast<double>(global[i]) - z[i - lo];
          const double s = static_cast<double>(z[i - lo]) - prev[i];
          r2 += r * r;
          s2 += s * s;
        }
      }
      primal_residual += std::sqrt(r2);
      dual_residual += static_cast<double>(rho) * std::sqrt(s2);
    }
    rho_ = adapt_rho(rho, primal_residual, dual_residual, config());
  }
  sweep(updates, global, rho);
}

void ConsensusAdmmServer::sweep(std::span<const comm::GatherUpdate> fresh,
                                std::span<const float> global,
                                float dual_rho) {
  const std::size_t n = primal_.front().size();
  std::vector<ConsensusStreamTerm> pairs(primal_.size());
  for (std::size_t p = 0; p < primal_.size(); ++p) {
    pairs[p] = {comm::WirePayload::f32(primal_[p].data(), n),
                comm::WirePayload::f32(dual_[p].data(), n)};
  }
  const float inv_p = 1.0F / static_cast<float>(primal_.size());
  const float inv_rho = 1.0F / rho_;
  global_.assign(n, 0.0F);
  for_each_chunk(n, primal_.size(), [&](std::size_t lo, std::size_t hi) {
    for (const auto& u : fresh) {
      float* z = primal_[u.sender - 1].data() + lo;
      float* l = dual_[u.sender - 1].data() + lo;
      materialize_chunk(u.primal, lo, hi, z);
      if (source_ == DualSource::kWire) {
        materialize_chunk(u.dual, lo, hi, l);
      } else {
        // Line 6: the client's dual step replayed on the same (w, z_p),
        // so both replicas stay bit-identical.
        tensor::dual_step(dual_rho, global.data() + lo, z, l, hi - lo);
      }
    }
    consensus_chunk(pairs, inv_p, inv_rho, lo, hi, global_.data() + lo);
  });
}

const std::vector<float>& ConsensusAdmmServer::dual(
    std::uint32_t client) const {
  APPFL_CHECK(client >= 1 && client <= dual_.size());
  return dual_[client - 1];
}

std::string ConsensusAdmmServer::checkpoint_kind() const {
  return source_ == DualSource::kWire ? "iceadmm" : "iiadmm";
}

ServerStateCkpt ConsensusAdmmServer::export_state() const {
  ServerStateCkpt s = BaseServer::export_state();
  s.rho = rho_;
  s.primal = primal_;
  s.dual = dual_;
  return s;
}

void ConsensusAdmmServer::import_state(const ServerStateCkpt& s) {
  BaseServer::import_state(s);
  const std::size_t n = primal_.front().size();
  APPFL_CHECK_MSG(s.primal.size() == num_clients() &&
                      s.dual.size() == num_clients(),
                  s.kind << " checkpoint sized for " << s.primal.size()
                         << " clients, server has " << num_clients());
  for (std::size_t p = 0; p < num_clients(); ++p) {
    APPFL_CHECK(s.primal[p].size() == n && s.dual[p].size() == n);
  }
  rho_ = static_cast<float>(s.rho);
  primal_ = s.primal;
  dual_ = s.dual;
  global_.clear();
}

}  // namespace appfl::core

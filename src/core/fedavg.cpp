#include "core/fedavg.hpp"

#include <algorithm>

#include "core/aggregate.hpp"
#include "tensor/accumulate.hpp"
#include "util/check.hpp"

namespace appfl::core {

comm::Message FedAvgClient::update(std::span<const float> global,
                                   std::uint32_t round) {
  begin_round(round);
  model().set_flat_parameters(global);
  // Fresh optimizer each round: momentum state does not persist across
  // communication rounds (matching the APPFL reference implementation).
  // The lr schedule decays over rounds; the DP sensitivity bound uses the
  // base lr, which upper-bounds every decayed value.
  nn::Sgd opt(nn::scheduled_lr(config().lr_schedule, config().lr, round,
                               config().rounds),
              config().momentum, config().weight_decay);

  std::vector<float> z(global.begin(), global.end());
  for (std::size_t epoch = 0; epoch < config().local_steps; ++epoch) {
    for (std::size_t b = 0; b < loader().num_batches(); ++b) {
      const data::Batch batch = loader().batch(b);
      // batch_gradient sets model params to z and leaves clipped grads in
      // the model; the optimizer then steps the model parameters in place.
      (void)batch_gradient(z, batch);
      opt.step(model());
      z = model().flat_parameters();
    }
    loader().next_epoch();
  }
  apply_dp(z, round);

  comm::Message m;
  m.kind = comm::MessageKind::kLocalUpdate;
  m.sender = id();
  m.receiver = 0;
  m.round = round;
  m.primal = std::move(z);
  m.sample_count = num_samples();
  m.loss = last_loss();
  return m;
}

FedAvgServer::FedAvgServer(const RunConfig& config,
                           std::unique_ptr<nn::Module> model,
                           data::TensorDataset test_set,
                           std::size_t num_clients)
    : BaseServer(config, std::move(model), std::move(test_set), num_clients) {
  // Every client starts from the shared initial point (z¹ exchange).
  primal_.assign(num_clients, BaseServer::initial_parameters());
  sample_counts_.assign(num_clients, 1);
  last_participants_.resize(num_clients);
  for (std::size_t p = 0; p < num_clients; ++p) last_participants_[p] = p;
}

std::vector<float> FedAvgServer::compute_global(std::uint32_t) {
  if (global_.empty()) sweep({});
  return global_;
}

void FedAvgServer::update(const std::vector<comm::Message>& locals,
                          std::span<const float>, std::uint32_t round) {
  aggregate(comm::gather_views(locals), round);
}

bool FedAvgServer::absorb(const comm::GatherBatch& batch,
                          std::span<const float>, std::uint32_t round) {
  aggregate(batch.updates(), round);
  return true;
}

void FedAvgServer::aggregate(std::span<const comm::GatherUpdate> updates,
                             std::uint32_t round) {
  // Straggler policy: a round where no update survived the network keeps
  // the previous aggregate untouched; otherwise the mean reweights by the
  // sample counts of the clients that actually responded.
  if (updates.empty()) return;
  APPFL_CHECK(updates.size() <= num_clients());
  const std::size_t n = primal_.front().size();
  for (const auto& u : updates) {
    APPFL_CHECK_MSG(u.round == round, "stale update from client " << u.sender);
    APPFL_CHECK(u.sender >= 1 && u.sender <= num_clients());
    APPFL_CHECK_MSG(u.dual.empty(),
                    "FedAvg updates must not carry dual variables");
    check_update_size(u, n);
  }
  last_participants_.clear();
  for (const auto& u : updates) {
    sample_counts_[u.sender - 1] = u.sample_count;
    last_participants_.push_back(u.sender - 1);
  }
  sweep(updates);
}

void FedAvgServer::sweep(std::span<const comm::GatherUpdate> fresh) {
  APPFL_CHECK(!last_participants_.empty());
  std::vector<float> weights(last_participants_.size());
  if (config().weighted_aggregation) {
    std::uint64_t total = 0;
    for (std::size_t p : last_participants_) total += sample_counts_[p];
    APPFL_CHECK(total > 0);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = static_cast<float>(
          static_cast<double>(sample_counts_[last_participants_[i]]) /
          static_cast<double>(total));
    }
  } else {
    std::fill(weights.begin(), weights.end(),
              1.0F / static_cast<float>(weights.size()));
  }
  const std::size_t n = primal_.front().size();
  global_.assign(n, 0.0F);
  // Each chunk of a fresh payload is decoded into its replica slot and
  // added into the mean at once, so the wire bytes are read exactly once.
  for_each_chunk(n, weights.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = 0; i < weights.size(); ++i) {
      float* replica = primal_[last_participants_[i]].data() + lo;
      if (!fresh.empty()) materialize_chunk(fresh[i].primal, lo, hi, replica);
      tensor::axpy_f32_bytes(weights[i],
                             reinterpret_cast<const std::uint8_t*>(replica),
                             global_.data() + lo, hi - lo);
    }
  });
}

ServerStateCkpt FedAvgServer::export_state() const {
  ServerStateCkpt s = BaseServer::export_state();
  s.primal = primal_;
  s.sample_counts = sample_counts_;
  s.participants.assign(last_participants_.begin(), last_participants_.end());
  return s;
}

void FedAvgServer::import_state(const ServerStateCkpt& s) {
  BaseServer::import_state(s);
  APPFL_CHECK_MSG(s.primal.size() == num_clients() &&
                      s.sample_counts.size() == num_clients(),
                  "FedAvg checkpoint sized for " << s.primal.size()
                      << " clients, server has " << num_clients());
  const std::size_t n = primal_.front().size();
  for (const auto& z : s.primal) APPFL_CHECK(z.size() == n);
  primal_ = s.primal;
  sample_counts_ = s.sample_counts;
  last_participants_.clear();
  for (std::uint64_t p : s.participants) {
    APPFL_CHECK(p < num_clients());
    last_participants_.push_back(static_cast<std::size_t>(p));
  }
  APPFL_CHECK(!last_participants_.empty());
  global_.clear();
}

}  // namespace appfl::core

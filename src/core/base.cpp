#include "core/base.hpp"

#include <algorithm>
#include <cmath>

#include "core/evaluation.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "rng/rng.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace appfl::core {

namespace {
constexpr std::uint64_t kLoaderStream = 11;
constexpr std::uint64_t kDpStream = 13;
}  // namespace

BaseClient::BaseClient(std::uint32_t id, const RunConfig& config,
                       const nn::Module& prototype, data::TensorDataset dataset)
    : id_(id),
      config_(config),
      dataset_(std::move(dataset)),
      model_(prototype.clone()),
      loader_(dataset_, config.batch_size, /*shuffle=*/true,
              rng::derive_seed(config.seed, {kLoaderStream, id})) {
  APPFL_CHECK_MSG(id >= 1, "client ids are 1-based (0 is the server)");
  APPFL_CHECK_MSG(dataset_.size() > 0, "client " << id << " has no data");
  config_.validate();
  round_rho_ = config_.rho;
  if (std::isfinite(config_.epsilon) &&
      config_.dp_mode == DpMode::kOutput) {
    mechanism_ =
        dp::make_laplace_for_budget(config_.epsilon, config_.sensitivity());
  } else {
    mechanism_ = std::make_unique<dp::NoOpMechanism>();
  }
}

void BaseClient::begin_round(std::uint32_t round) {
  current_round_ = round;
  dp_step_ = 0;
  last_loss_ = 0.0;
  loss_batches_ = 0;
}

std::size_t BaseClient::dp_steps_per_round() const {
  return config_.local_steps * loader_.num_batches();
}

comm::Message BaseClient::handle_global(const comm::Message& global) {
  round_rho_ = global.rho > 0.0 ? static_cast<float>(global.rho) : config_.rho;
  return update(global.primal, global.round);
}

std::vector<float> BaseClient::batch_gradient(std::span<const float> z,
                                              const data::Batch& batch) {
  obs::ScopedSpan span("client.batch", "client");
  span.set_arg("client", id_);
  model_->set_flat_parameters(z);
  model_->zero_grad();
  nn::Tensor logits = model_->forward(batch.inputs);
  nn::LossResult lr = criterion_.compute(logits, batch.labels);
  model_->backward(lr.grad);
  std::vector<float> grad = model_->flat_gradients();
  if (config_.clip > 0.0F) {
    // Clip both the returned copy and the gradients stored in the model, so
    // optimizer-driven algorithms (FedAvg's SGD step reads model grads) see
    // the same clipped direction as closed-form algorithms (IADMM family).
    const float factor = tensor::clip_norm(std::span<float>(grad), config_.clip);
    if (factor < 1.0F) {
      for (nn::Param* p : model_->params()) {
        tensor::scal(factor, p->grad.data());
      }
    }
  }
  if (config_.dp_mode == DpMode::kGradient && std::isfinite(config_.epsilon)) {
    // Per-step Laplace noise. Swapping one sample moves the clipped batch
    // gradient by at most Δ = 2C; the round budget ε splits evenly over the
    // planned steps (basic composition), so b = Δ / (ε / steps).
    const double steps = static_cast<double>(std::max<std::size_t>(
        1, dp_steps_per_round()));
    const double scale =
        2.0 * static_cast<double>(config_.clip) * steps / config_.epsilon;
    rng::Rng noise(rng::derive_seed(
        config_.seed, {17, id_, current_round_, dp_step_++}));
    dp::LaplaceMechanism mech(scale);
    mech.apply(grad, noise);
    // Keep the model's stored gradients consistent with the returned copy.
    std::size_t off = 0;
    for (nn::Param* p : model_->params()) {
      auto d = p->grad.data();
      tensor::copy(std::span<const float>(grad).subspan(off, d.size()), d);
      off += d.size();
    }
  }
  // Running mean of batch losses across this round.
  last_loss_ = (last_loss_ * static_cast<double>(loss_batches_) + lr.loss) /
               static_cast<double>(loss_batches_ + 1);
  ++loss_batches_;
  return grad;
}

void BaseClient::apply_dp(std::vector<float>& values, std::uint32_t round) {
  obs::ScopedSpan span("dp.noise", "dp");
  span.set_arg("client", id_);
  // In gradient mode mechanism_ is the no-op: the budget was spent per step.
  rng::Rng noise(rng::derive_seed(config_.seed, {kDpStream, id_, round}));
  mechanism_->apply(values, noise);
}

ClientStateCkpt BaseClient::export_state() const {
  ClientStateCkpt s;
  s.id = id_;
  s.loader_epochs = loader_.epoch();
  export_algo_state(s);
  return s;
}

void BaseClient::import_state(const ClientStateCkpt& s) {
  APPFL_CHECK_MSG(s.id == id_, "checkpoint for client " << s.id
                                   << " applied to client " << id_);
  APPFL_CHECK_MSG(loader_.epoch() <= s.loader_epochs,
                  "client " << id_ << " is past the checkpoint (loader epoch "
                            << loader_.epoch() << " > " << s.loader_epochs
                            << ")");
  // Replaying the epoch advances reproduces the loader's RNG state and
  // permutation exactly — the shuffle stream is the only RNG it owns.
  while (loader_.epoch() < s.loader_epochs) loader_.next_epoch();
  import_algo_state(s);
}

BaseServer::BaseServer(const RunConfig& config,
                       std::unique_ptr<nn::Module> model,
                       data::TensorDataset test_set, std::size_t num_clients)
    : config_(config),
      model_(std::move(model)),
      test_set_(std::move(test_set)),
      num_clients_(num_clients) {
  APPFL_CHECK(model_ != nullptr);
  APPFL_CHECK(num_clients_ >= 1);
  config_.validate();
}

float BaseServer::current_rho() const { return config_.rho; }

ServerStateCkpt BaseServer::export_state() const {
  ServerStateCkpt s;
  s.kind = checkpoint_kind();
  return s;
}

void BaseServer::import_state(const ServerStateCkpt& s) {
  APPFL_CHECK_MSG(s.kind == checkpoint_kind(),
                  "checkpoint holds '" << s.kind << "' server state, this "
                  "server is '" << checkpoint_kind() << "'");
}

std::size_t BaseServer::validation_tasks() const {
  return core::validation_tasks(test_set_, config_.validate_batch);
}

std::size_t BaseServer::count_correct(std::span<const float> w,
                                      std::size_t task) const {
  return core::count_correct(*model_, w, test_set_, config_.validate_batch,
                             task);
}

double BaseServer::accuracy(std::span<const std::size_t> correct) const {
  return core::accuracy(test_set_, correct);
}

double BaseServer::validate(std::span<const float> w) const {
  return validation_accuracy(*model_, w, test_set_, config_.validate_batch);
}

}  // namespace appfl::core

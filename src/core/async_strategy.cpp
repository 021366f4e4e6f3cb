#include "core/async_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "comm/message.hpp"
#include "core/aggregate.hpp"
#include "core/checkpoint.hpp"
#include "core/iiadmm.hpp"
#include "util/check.hpp"

namespace appfl::core {

std::string to_string(AsyncStrategyKind k) {
  return std::string(kAsyncStrategyNames[static_cast<std::size_t>(k)]);
}

std::string to_string(StalenessWeight w) {
  return std::string(kStalenessWeightNames[static_cast<std::size_t>(w)]);
}

void AsyncStrategyOptions::validate() const {
  APPFL_CHECK_MSG(buffer_k >= 1, "FedBuff buffer_k must be >= 1");
  APPFL_CHECK_MSG(buffer_k <= 4096, "FedBuff buffer_k " << buffer_k
                                        << " is implausibly large (max 4096)");
}

float AsyncStrategy::staleness_weight(std::size_t staleness) const {
  switch (weight_) {
    case StalenessWeight::kConstant:
      return alpha_;
    case StalenessWeight::kPolynomial:
      // The exact expression the pre-strategy runner used — the default
      // configuration must stay bit-identical across this refactor.
      return alpha_ / (1.0F + static_cast<float>(staleness));
    case StalenessWeight::kHinge:
      if (staleness <= hinge_s0_) return alpha_;
      return alpha_ / (1.0F + static_cast<float>(staleness - hinge_s0_));
  }
  return alpha_;
}

void AsyncStrategy::on_dropped(std::size_t, BaseClient& c) const {
  c.on_uplink_result(false);
}

namespace {

/// FedAsync: every arrival is mixed into the model immediately,
/// w ← (1 − α_s)·w + α_s·z, and the model version advances.
class FedAsyncStrategy : public AsyncStrategy {
 public:
  FedAsyncStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                   std::size_t base_steps)
      : AsyncStrategy(alpha, weight, hinge_s0, base_steps) {}

  std::string name() const override {
    return to_string(AsyncStrategyKind::kFedAsync);
  }

  Absorbed absorb(std::size_t, std::span<const float> payload,
                  std::size_t staleness, std::span<float> w) override {
    APPFL_CHECK_MSG(payload.size() == w.size(),
                    "async payload size " << payload.size()
                                          << " != model size " << w.size());
    const float mixing = staleness_weight(staleness);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = (1.0F - mixing) * w[i] + mixing * payload[i];
    }
    return {.mixing = mixing, .committed = true};
  }
};

/// FedBuff: arrivals carry deltas Δ = z − w_sent; K of them are buffered
/// (each pre-weighted by its own α_s) and committed in one fused reduction
/// w ← w + (1/K) Σ α_s(τᵢ)·Δᵢ. Only commits advance the model version.
class FedBuffStrategy : public AsyncStrategy {
 public:
  FedBuffStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                  std::size_t base_steps, std::size_t k)
      : AsyncStrategy(alpha, weight, hinge_s0, base_steps), k_(k) {}

  std::string name() const override {
    return to_string(AsyncStrategyKind::kFedBuff);
  }

  std::vector<float> in_flight_payload(std::size_t, std::vector<float> z,
                                       std::span<const float> w_sent) override {
    APPFL_CHECK_MSG(z.size() == w_sent.size(),
                    "FedBuff delta: trained model size "
                        << z.size() << " != dispatched size " << w_sent.size());
    for (std::size_t i = 0; i < z.size(); ++i) z[i] -= w_sent[i];
    return z;  // the delta the server buffers on arrival
  }

  Absorbed absorb(std::size_t, std::span<const float> payload,
                  std::size_t staleness, std::span<float> w) override {
    APPFL_CHECK_MSG(payload.size() == w.size(),
                    "async payload size " << payload.size()
                                          << " != model size " << w.size());
    const float mixing = staleness_weight(staleness);
    buffer_.emplace_back(payload.begin(), payload.end());
    weights_.push_back(mixing);
    if (buffer_.size() < k_) return {.mixing = mixing, .committed = false};

    // Commit: one fused weighted reduction over the K buffered deltas via
    // the core/aggregate stream kernels (bit-identical at any kernel-pool
    // thread count), then an elementwise add into the global model.
    std::vector<StreamTerm> terms;
    terms.reserve(buffer_.size());
    const float inv_k = 1.0F / static_cast<float>(k_);
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      terms.push_back(StreamTerm{
          comm::WirePayload::f32(buffer_[i].data(), buffer_[i].size()),
          weights_[i] * inv_k});
    }
    std::vector<float> step(w.size(), 0.0F);
    weighted_sum_stream(terms, step);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] += step[i];
    buffer_.clear();
    weights_.clear();
    return {.mixing = mixing, .committed = true};
  }

  void export_state(RunCheckpoint& out) const override {
    out.buffer = buffer_;
    out.buffer_weights = weights_;
  }

  void import_state(const RunCheckpoint& in) override {
    APPFL_CHECK_MSG(in.buffer.size() == in.buffer_weights.size(),
                    "FedBuff checkpoint buffer/weights are unpaired");
    APPFL_CHECK_MSG(in.buffer.size() < k_,
                    "FedBuff checkpoint buffers " << in.buffer.size()
                        << " deltas, but commits fire at " << k_);
    buffer_ = in.buffer;
    weights_ = in.buffer_weights;
  }

 private:
  std::size_t k_;
  std::vector<std::vector<float>> buffer_;
  std::vector<float> weights_;
};

/// FedCompass-style compute-aware scheduler: assign each client the number
/// of local steps that makes its dispatch last about as long as the
/// slowest client's base pass, so arrivals cluster and staleness ≈ 0.
/// Absorption is FedAsync's staleness-damped mixing.
class FedCompassStrategy : public FedAsyncStrategy {
 public:
  FedCompassStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                     std::size_t base_steps,
                     std::span<const double> seconds_per_step)
      : FedAsyncStrategy(alpha, weight, hinge_s0, base_steps) {
    APPFL_CHECK_MSG(!seconds_per_step.empty(),
                    "FedCompass needs per-client compute speeds");
    double slowest = 0.0;
    for (double s : seconds_per_step) {
      APPFL_CHECK_MSG(s > 0.0, "FedCompass needs positive per-step seconds");
      slowest = std::max(slowest, s);
    }
    // Everyone targets the wall-clock of the slowest client's base pass;
    // fast clients fill the window with extra local steps (capped at 8×
    // base so loosely-coupled fleets can't run away from the global model).
    const double target = static_cast<double>(base_steps) * slowest;
    steps_.reserve(seconds_per_step.size());
    for (double s : seconds_per_step) {
      const double ideal = target / s;
      const auto steps = static_cast<std::size_t>(std::llround(ideal));
      steps_.push_back(std::clamp<std::size_t>(steps, 1, 8 * base_steps));
    }
  }

  std::string name() const override {
    return to_string(AsyncStrategyKind::kFedCompass);
  }

  std::size_t local_steps(std::size_t client) const override {
    APPFL_CHECK_MSG(client < steps_.size(),
                    "FedCompass step plan has no client " << client);
    return steps_[client];
  }

  void export_state(RunCheckpoint& out) const override {
    out.assigned_steps.assign(steps_.begin(), steps_.end());
  }

  void import_state(const RunCheckpoint& in) override {
    // The plan is a pure function of the fleet + config, so a resumed run
    // re-derives it; the stored copy is a fingerprint that catches resuming
    // against a different fleet.
    std::vector<std::uint64_t> derived(steps_.begin(), steps_.end());
    APPFL_CHECK_MSG(in.assigned_steps == derived,
                    "FedCompass checkpoint step plan does not match this "
                    "fleet — resuming against different devices?");
  }

 private:
  std::vector<std::size_t> steps_;
};

/// Async IIADMM: the server's aggregation body replays the arriving
/// client's dual step against the w that client trained on, and the next
/// model is line 3's consensus over all P replicas, stale ones included,
/// built in the same pass. Absorption is exact, so it reports mixing 1 and
/// commits every arrival. The constant weight passed to the base is never
/// read.
class IIAdmmStrategy : public AsyncStrategy {
 public:
  IIAdmmStrategy(IIAdmmServer& server, std::size_t base_steps)
      : AsyncStrategy(1.0F, StalenessWeight::kConstant, 0, base_steps),
        server_(server),
        w_sent_(server.num_clients()) {}

  std::string name() const override { return "iiadmm"; }

  std::vector<float> in_flight_payload(std::size_t client, std::vector<float> z,
                                       std::span<const float> w_sent) override {
    w_sent_.at(client).assign(w_sent.begin(), w_sent.end());
    return z;
  }

  Absorbed absorb(std::size_t client, std::span<const float> payload,
                  std::size_t, std::span<float> w) override {
    comm::GatherUpdate arrival;
    arrival.sender = static_cast<std::uint32_t>(client + 1);
    arrival.primal = comm::WirePayload::f32(payload.data(), payload.size());
    server_.aggregate({&arrival, 1}, w_sent_.at(client), 0);
    const std::vector<float>& next = server_.consensus();
    APPFL_CHECK_MSG(next.size() == w.size(),
                    "IIADMM consensus size " << next.size()
                                             << " != model size " << w.size());
    std::copy(next.begin(), next.end(), w.begin());
    return {.mixing = 1.0F, .committed = true};
  }

  /// Re-seats the client's dual from the server replica, which is the
  /// client's pre-dispatch dual bit for bit. The client's own rollback copy
  /// would do too, but it is not checkpointed, so it is gone after a
  /// restart while the replica is not.
  void on_dropped(std::size_t client, BaseClient& c) const override {
    ClientStateCkpt s = c.export_state();
    s.dual = server_.dual(static_cast<std::uint32_t>(client + 1));
    c.import_state(s);
  }

  void export_state(RunCheckpoint& out) const override {
    ServerStateCkpt s = server_.export_state();
    out.server_primal = std::move(s.primal);
    out.server_dual = std::move(s.dual);
    out.w_sent = w_sent_;
  }

  void import_state(const RunCheckpoint& in) override {
    APPFL_CHECK_MSG(in.server_primal.size() == w_sent_.size() &&
                        in.server_dual.size() == w_sent_.size() &&
                        in.w_sent.size() == w_sent_.size(),
                    "async IIADMM checkpoint replica tables are incomplete");
    ServerStateCkpt s = server_.export_state();
    s.primal = in.server_primal;
    s.dual = in.server_dual;
    server_.import_state(s);
    w_sent_ = in.w_sent;
  }

 private:
  IIAdmmServer& server_;
  std::vector<std::vector<float>> w_sent_;  // the w each client trained on
};

}  // namespace

std::unique_ptr<AsyncStrategy> AsyncStrategy::make(
    const AsyncStrategyOptions& opts, float mixing_alpha,
    std::size_t base_local_steps, std::span<const double> seconds_per_step) {
  opts.validate();
  switch (opts.kind) {
    case AsyncStrategyKind::kFedAsync:
      return std::make_unique<FedAsyncStrategy>(mixing_alpha, opts.weight,
                                                opts.hinge_s0,
                                                base_local_steps);
    case AsyncStrategyKind::kFedBuff:
      return std::make_unique<FedBuffStrategy>(mixing_alpha, opts.weight,
                                               opts.hinge_s0, base_local_steps,
                                               opts.buffer_k);
    case AsyncStrategyKind::kFedCompass:
      return std::make_unique<FedCompassStrategy>(mixing_alpha, opts.weight,
                                                  opts.hinge_s0,
                                                  base_local_steps,
                                                  seconds_per_step);
  }
  APPFL_CHECK_MSG(false, "unreachable async strategy kind");
  return nullptr;
}

std::unique_ptr<AsyncStrategy> AsyncStrategy::make_iiadmm(
    IIAdmmServer& server, std::size_t base_local_steps) {
  return std::make_unique<IIAdmmStrategy>(server, base_local_steps);
}

}  // namespace appfl::core

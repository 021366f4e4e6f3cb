#include "core/async_runner.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "core/checkpoint.hpp"
#include "core/iiadmm.hpp"
#include "core/obs_session.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace appfl::core {

namespace {

struct PendingUpdate {
  double finish_time = 0.0;
  std::uint32_t client = 0;  // 1-based
  std::size_t version = 0;   // server version the client trained on

  bool operator>(const PendingUpdate& other) const {
    // Tie-break on client id for determinism.
    if (finish_time != other.finish_time) {
      return finish_time > other.finish_time;
    }
    return client > other.client;
  }
};

// Shared async-runner instrumentation: the staleness distribution is THE
// async-specific signal (how stale was each absorbed update), so every async
// scheme feeds the same registry histogram. Zero-anchored bounds: staleness
// 0 — the modal value in low-concurrency runs — must land in a visible
// bucket ([0, 1)), not the underflow counter.
void record_async_event_metrics(std::size_t staleness, bool committed) {
  if (!obs::metrics_on()) return;
  static obs::Histogram& staleness_h = obs::MetricsRegistry::global().histogram(
      "async.staleness", 0.0, 1024.0, 25);
  static obs::Counter& applied_c =
      obs::MetricsRegistry::global().counter("async.updates_applied");
  static obs::Counter& commits_c =
      obs::MetricsRegistry::global().counter("async.commits");
  staleness_h.record(static_cast<double>(staleness));
  applied_c.inc();
  if (committed) commits_c.inc();
}

void record_async_drop_metric() {
  if (!obs::metrics_on()) return;
  static obs::Counter& dropped_c =
      obs::MetricsRegistry::global().counter("async.dropped");
  dropped_c.inc();
}

std::string async_event_json(std::size_t index, const AsyncEvent& e) {
  std::ostringstream os;
  os << "{\"type\":\"async_event\",\"update\":" << index
     << ",\"sim_time\":" << obs::json_number(e.sim_time)
     << ",\"client\":" << e.client << ",\"staleness\":" << e.staleness
     << ",\"mixing\":" << obs::json_number(e.mixing)
     << ",\"committed\":" << (e.committed ? "true" : "false")
     << ",\"test_accuracy\":" << obs::json_optional(e.test_accuracy) << "}";
  return os.str();
}

/// The run's update budget: an explicit total_updates, else rounds × clients
/// for parity with the synchronous schedule. Guards the multiply — a silent
/// size_t wrap would hand the event loop a budget of 0 and the summary a
/// 0/0 = NaN mean staleness.
std::size_t resolve_total_updates(const AsyncConfig& config,
                                  const RunConfig& cfg,
                                  std::size_t num_clients) {
  std::size_t total = config.total_updates;
  if (total == 0) {
    APPFL_CHECK_MSG(
        cfg.rounds <= std::numeric_limits<std::size_t>::max() / num_clients,
        "rounds × clients overflows the async update budget");
    total = cfg.rounds * num_clients;
  }
  APPFL_CHECK_MSG(total >= 1, "async run needs total_updates >= 1");
  return total;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](float x, float y) {
           return std::bit_cast<std::uint32_t>(x) ==
                  std::bit_cast<std::uint32_t>(y);
         });
}

/// The one async event loop. The algorithm picks the commit policy:
/// FedAvg runs the AsyncStrategyOptions knob's FedAsync/FedBuff/FedCompass,
/// IIADMM runs exact absorption into the IIAdmmServer's replicas and, when
/// `duals_consistent` is given, checks them against the clients at the end.
AsyncRunResult run_async_loop(const AsyncConfig& configured,
                              const data::FederatedSplit& split,
                              Algorithm algorithm, bool* duals_consistent) {
  const AsyncConfig config = with_env_overrides(configured);
  RunConfig cfg = config.run;
  cfg.algorithm = algorithm;
  cfg.validate();
  const bool iiadmm = algorithm == Algorithm::kIIAdmm;
  APPFL_CHECK_MSG(cfg.population == 0,
                  "population sampling is a run_population feature; the "
                  "async runner drives the split's clients directly");
  // Async IIADMM clients never receive an adapted ρ, so adapting it in the
  // server's aggregation would break the replicas. (FedAvg's validate()
  // already rejects adaptive ρ.)
  APPFL_CHECK_MSG(!cfg.adaptive_rho,
                  "async IIADMM needs a constant rho: its clients never "
                  "receive an adapted one");
  // The async loop has no masking protocol and no communicator codec;
  // running without them would silently ignore what the caller asked for.
  APPFL_CHECK_MSG(!cfg.secure_agg,
                  "secure aggregation is a sync/population feature; the "
                  "async runner would upload unmasked");
  APPFL_CHECK_MSG(cfg.uplink_codec == comm::UplinkCodec::kNone,
                  "the async runner ships uncompressed payloads; "
                  "uplink_codec must be none");
  ObsSession obs_session(cfg);
  APPFL_CHECK_MSG(config.mixing_alpha > 0.0F && config.mixing_alpha <= 1.0F,
                  "mixing alpha must be in (0, 1]");
  const std::size_t num_clients = split.clients.size();
  APPFL_CHECK(num_clients >= 1);
  const std::size_t total_updates =
      resolve_total_updates(config, cfg, num_clients);

  std::vector<hw::DeviceProfile> devices = config.devices;
  if (devices.empty()) devices.push_back(hw::v100());

  auto prototype = build_model(cfg, split.test);
  const double flops_one_pass = 3.0 * prototype->forward_flops(1);
  // The IIADMM policy holds the server, so the server comes first, from a
  // clone: the prototype's weights are every client's starting point too.
  auto server =
      build_server(cfg, prototype->clone(), split.test, num_clients);

  // The strategy decides the absorb rule and each client's per-dispatch
  // local work; the compute-aware scheduler needs the fleet's speeds.
  std::vector<double> seconds_per_step(num_clients);
  for (std::size_t p = 0; p < num_clients; ++p) {
    seconds_per_step[p] = devices[p % devices.size()].seconds_for(
        flops_one_pass * static_cast<double>(split.clients[p].size()));
  }
  std::unique_ptr<AsyncStrategy> strategy =
      iiadmm ? AsyncStrategy::make_iiadmm(
                   static_cast<IIAdmmServer&>(*server), cfg.local_steps)
             : AsyncStrategy::make(config.strategy, config.mixing_alpha,
                                   cfg.local_steps, seconds_per_step);

  std::vector<std::unique_ptr<BaseClient>> clients;
  clients.reserve(num_clients);
  for (std::size_t p = 0; p < num_clients; ++p) {
    RunConfig client_cfg = cfg;
    client_cfg.local_steps = strategy->local_steps(p);
    clients.push_back(build_client(static_cast<std::uint32_t>(p + 1),
                                   client_cfg, *prototype, split.clients[p]));
  }
  // IIADMM starts from line 3's consensus over the initial replicas.
  std::vector<float> w = iiadmm ? server->compute_global(0)
                                : server->initial_parameters();
  const std::size_t payload_bytes = 4 * w.size() + 64;

  comm::GrpcCostModel net;
  rng::Rng jitter(rng::derive_seed(cfg.seed, {0xA5, iiadmm ? 3U : 1U}));
  // Drop faults get their own stream so fault-free runs stay bit-identical
  // to pre-fault builds (the stream is never drawn from when drop == 0).
  const comm::FaultConfig& faults = cfg.faults;
  rng::Rng drop_rng(rng::derive_seed(cfg.seed, {0xA5, 4}));

  // Simulated duration of one dispatch for client p (compute + 2× link).
  auto duration_of = [&](std::size_t p) {
    const auto& dev = devices[p % devices.size()];
    const double compute = dev.seconds_for(
        flops_one_pass * static_cast<double>(clients[p]->num_samples()) *
        static_cast<double>(strategy->local_steps(p)));
    return compute + net.transfer_seconds(payload_bytes, jitter) +
           net.transfer_seconds(payload_bytes, jitter);
  };

  // Train-at-dispatch: the local result is a pure function of the w the
  // client received, so computing it eagerly and delivering it at
  // finish_time is equivalent to computing it on arrival. What rides in
  // flight is the strategy's payload (the model for mixing schemes and
  // IIADMM, the delta for FedBuff).
  std::vector<std::vector<float>> in_flight(num_clients);
  std::priority_queue<PendingUpdate, std::vector<PendingUpdate>,
                      std::greater<PendingUpdate>>
      queue;
  std::size_t version = 0;
  std::size_t dispatch_counter = 0;
  const bool track_health = obs_session.metrics_enabled();
  auto dispatch = [&](std::size_t p, double now) {
    obs::ScopedSpan span("async.dispatch", "async");
    span.set_arg("client", p + 1);
    const comm::Message update = clients[p]->update(
        w, static_cast<std::uint32_t>(++dispatch_counter));
    in_flight[p] = strategy->in_flight_payload(p, update.primal, w);
    const double dur = duration_of(p);
    // The dispatch's simulated duration (compute + both links) is the async
    // scheme's client latency — what the straggler score should rank by.
    if (track_health) {
      obs_session.health().observe_latency(static_cast<std::uint32_t>(p + 1),
                                           dur);
    }
    queue.push({now + dur, static_cast<std::uint32_t>(p + 1), version});
  };

  AsyncRunResult result;
  result.strategy = strategy->name();
  double staleness_sum = 0.0;

  RunCheckpoints ckpts(
      cfg, {.flavor = RunFingerprint::Flavor::kAsync,
            .seed = cfg.seed,
            .num_clients = static_cast<std::uint32_t>(num_clients),
            .param_count = w.size(),
            .total = total_updates});
  if (const std::optional<RunCheckpoint> ac = ckpts.resume()) {
    // Pre-strategy checkpoints carry no strategy tag; the only scheme that
    // could have written them is FedAsync.
    const std::string written_by =
        ac->strategy.empty() ? std::string("fedasync") : ac->strategy;
    APPFL_CHECK_MSG(written_by == result.strategy,
                    "async checkpoint was written by strategy '"
                        << written_by << "' but this run uses '"
                        << result.strategy << "'");
    strategy->import_state(*ac);
    w = ac->parameters;
    version = ac->version;
    dispatch_counter = ac->dispatch_counter;
    result.applied_updates = ac->completed;
    result.resumed_from_update = ac->completed;
    result.committed_updates = version;
    result.dropped_updates = ac->dropped_updates;
    result.sim_seconds = ac->sim_seconds;
    staleness_sum = ac->staleness_sum;
    jitter.set_state(ac->rng_state);
    bool fault_rng_used = false;
    for (std::uint64_t word : ac->fault_rng) fault_rng_used |= word != 0;
    if (fault_rng_used) drop_rng.set_state(ac->fault_rng);
    for (std::size_t p = 0; p < num_clients; ++p) {
      clients[p]->import_state(ac->clients[p]);
      in_flight[p] = ac->in_flight[p];
    }
    // The pending dispatches were computed before the crash; their results
    // (in_flight) ride along, so nothing is re-trained or skipped.
    for (const RunCheckpoint::Pending& pend : ac->queue) {
      queue.push({pend.finish_time, pend.client,
                  static_cast<std::size_t>(pend.version)});
    }
  } else {
    for (std::size_t p = 0; p < num_clients; ++p) dispatch(p, 0.0);
  }

  while (result.applied_updates < total_updates) {
    APPFL_CHECK(!queue.empty());
    const PendingUpdate next = queue.top();
    queue.pop();
    const std::size_t p = next.client - 1;

    if (faults.drop > 0.0 && drop_rng.uniform01() < faults.drop) {
      // The uplink lost this result. Async FL's retransmit is simply the
      // next dispatch: the client restarts from the current w (so the
      // redone work is never staler than the original would have been).
      // The server never saw the lost result, so an IIADMM client rolls its
      // speculative dual step back first; FedAvg clients have nothing to
      // roll back.
      ++result.dropped_updates;
      record_async_drop_metric();
      if (track_health) {
        obs_session.health().add_dropped_frames(next.client, 1);
      }
      obs::flight_record("async.drop",
                         "{\"client\":" + std::to_string(next.client) + "}");
      strategy->on_dropped(p, *clients[p]);
      dispatch(p, next.finish_time);
      continue;
    }

    const std::size_t staleness = version - next.version;
    const auto& z = in_flight[p];
    AsyncStrategy::Absorbed absorbed;
    {
      obs::ScopedSpan span("async.apply", "async");
      span.set_arg("client", next.client);
      absorbed = strategy->absorb(p, z, staleness, w);
    }
    if (absorbed.committed) {
      ++version;
      ++result.committed_updates;
    }
    ++result.applied_updates;
    staleness_sum += static_cast<double>(staleness);
    record_async_event_metrics(staleness, absorbed.committed);

    AsyncEvent event;
    event.sim_time = next.finish_time;
    event.client = next.client;
    event.staleness = staleness;
    event.mixing = absorbed.mixing;
    event.committed = absorbed.committed;
    if (config.validate_every > 0 &&
        result.applied_updates % config.validate_every == 0) {
      APPFL_SPAN("fl.validate", "fl");
      event.test_accuracy = server->validate(w);
    }
    result.sim_seconds = next.finish_time;
    result.events.push_back(event);
    if (obs_session.streaming()) {
      obs_session.write_line(
          async_event_json(result.applied_updates, event));
    }

    if (result.applied_updates + queue.size() < total_updates) {
      dispatch(p, next.finish_time);
    }

    ckpts.maybe_save(result.applied_updates, [&](RunCheckpoint& ac) {
      ac.version = version;
      ac.dispatch_counter = dispatch_counter;
      ac.staleness_sum = staleness_sum;
      ac.sim_seconds = result.sim_seconds;
      ac.parameters = w;
      ac.rng_state = jitter.state();
      auto pending = queue;  // priority_queue has no iteration; drain a copy
      while (!pending.empty()) {
        const PendingUpdate& top = pending.top();
        ac.queue.push_back({top.finish_time, top.client, top.version});
        pending.pop();
      }
      ac.in_flight = in_flight;
      for (std::size_t cp = 0; cp < num_clients; ++cp) {
        ac.clients.push_back(clients[cp]->export_state());
      }
      ac.strategy = result.strategy;
      strategy->export_state(ac);
      ac.dropped_updates = result.dropped_updates;
      if (faults.drop > 0.0) ac.fault_rng = drop_rng.state();
    });
    if (ckpts.halts_at(result.applied_updates)) break;
  }

  result.final_accuracy = server->validate(w);
  result.final_w = w;
  result.checkpoints_written = ckpts.written();
  result.mean_staleness =
      result.applied_updates > 0
          ? staleness_sum / static_cast<double>(result.applied_updates)
          : 0.0;
  if (obs_session.streaming()) {
    std::ostringstream os;
    os << "{\"type\":\"async_summary\",\"strategy\":\"" << result.strategy
       << "\",\"applied_updates\":" << result.applied_updates
       << ",\"committed_updates\":" << result.committed_updates
       << ",\"dropped_updates\":" << result.dropped_updates
       << ",\"sim_seconds\":" << obs::json_number(result.sim_seconds)
       << ",\"final_accuracy\":" << obs::json_number(result.final_accuracy)
       << ",\"mean_staleness\":" << obs::json_number(result.mean_staleness)
       << ",\"resumed_from_update\":" << result.resumed_from_update
       << ",\"checkpoints_written\":" << result.checkpoints_written << "}";
    obs_session.write_line(os.str());
  }
  if (duals_consistent != nullptr) {
    // The invariant: every client's dual equals the server replica bit for
    // bit, though duals never crossed the wire and arrivals were async.
    const auto& admm = static_cast<const IIAdmmServer&>(*server);
    *duals_consistent = true;
    for (std::size_t p = 0; p < num_clients; ++p) {
      *duals_consistent &= same_bits(clients[p]->export_state().dual,
                                     admm.dual(static_cast<std::uint32_t>(p + 1)));
    }
  }
  obs_session.finish();
  return result;
}

}  // namespace

AsyncRunResult run_async(const AsyncConfig& config,
                         const data::FederatedSplit& split) {
  return run_async_loop(config, split, Algorithm::kFedAvg, nullptr);
}

AsyncIIAdmmResult run_async_iiadmm(const AsyncConfig& config,
                                   const data::FederatedSplit& split) {
  AsyncIIAdmmResult result;
  result.base = run_async_loop(config, split, Algorithm::kIIAdmm,
                               &result.duals_consistent);
  return result;
}

SyncBaselineResult run_sync_baseline(const AsyncConfig& config,
                                     const data::FederatedSplit& split) {
  RunConfig cfg = config.run;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.validate();
  const std::size_t num_clients = split.clients.size();
  std::vector<hw::DeviceProfile> devices = config.devices;
  if (devices.empty()) devices.push_back(hw::v100());

  // Accuracy from the real synchronous runner, which also runs this
  // baseline's env pass: its result carries the resolved fault plane that
  // the time model below charges.
  RunConfig sync_cfg = cfg;
  sync_cfg.validate_every_round = false;
  const RunResult learning = run_federated(sync_cfg, split);

  // Simulated time with the SAME per-client link model the async scheme
  // uses (compute + 2× gRPC transfer) — a synchronous round just barriers
  // on the slowest client instead of streaming updates in. A positive drop
  // rate charges lost uplinks an ack timeout + retransmit before the
  // barrier releases (the sync runner's recovery path); the drop stream is
  // separate so fault-free baselines stay bit-identical.
  rng::Rng jitter(rng::derive_seed(cfg.seed, {0xA5, 2}));
  const comm::FaultConfig& faults = learning.config.faults;
  rng::Rng drop_rng(rng::derive_seed(cfg.seed, {0xA5, 5}));
  auto prototype = build_model(cfg, split.test);
  const double flops_one_pass = 3.0 * prototype->forward_flops(1);
  comm::GrpcCostModel net;
  const std::size_t payload = 4 * prototype->num_parameters() + 64;

  SyncBaselineResult result;
  result.round_seconds.reserve(cfg.rounds);
  double total = 0.0;
  double idle_sum = 0.0;
  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    double slowest = 0.0;
    std::vector<double> times(num_clients);
    for (std::size_t p = 0; p < num_clients; ++p) {
      const auto& dev = devices[p % devices.size()];
      times[p] = dev.seconds_for(
                     flops_one_pass *
                     static_cast<double>(split.clients[p].size()) *
                     static_cast<double>(cfg.local_steps)) +
                 net.transfer_seconds(payload, jitter) +
                 net.transfer_seconds(payload, jitter);
      if (faults.drop > 0.0) {
        while (drop_rng.uniform01() < faults.drop) {
          times[p] += cfg.ack_timeout_s + net.transfer_seconds(payload, jitter);
        }
      }
      slowest = std::max(slowest, times[p]);
    }
    for (double t : times) idle_sum += (slowest - t) / slowest;
    total += slowest;
    result.round_seconds.push_back(total);
  }

  result.sim_seconds = total;
  result.final_accuracy = learning.final_accuracy;
  result.straggler_idle_fraction =
      idle_sum / static_cast<double>(cfg.rounds * num_clients);
  return result;
}

}  // namespace appfl::core

#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "obs/flight.hpp"
#include "core/fedavg.hpp"
#include "core/sampling.hpp"
#include "core/obs_session.hpp"
#include "core/options.hpp"
#include "dp/accountant.hpp"
#include "core/iceadmm.hpp"
#include "core/fedprox.hpp"
#include "core/iiadmm.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace appfl::core {

std::vector<double> RunResult::cumulative_comm_seconds() const {
  std::vector<double> out;
  out.reserve(comm_rounds.size());
  double acc = 0.0;
  for (const auto& r : comm_rounds) {
    acc += r.total_s();
    out.push_back(acc);
  }
  return out;
}

double RunResult::mean_test_accuracy() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& m : rounds) {
    if (m.test_accuracy < 0.0) continue;  // skipped-validation sentinel
    sum += m.test_accuracy;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

double RunResult::best_test_accuracy() const {
  double best = -1.0;
  for (const auto& m : rounds) {
    if (m.test_accuracy < 0.0) continue;
    best = std::max(best, m.test_accuracy);
  }
  return best;
}

std::unique_ptr<nn::Module> build_model(const RunConfig& config,
                                        const data::TensorDataset& reference) {
  rng::Rng rng(rng::derive_seed(config.seed, {42}));
  const auto shape = reference.sample_shape();
  const std::size_t classes = reference.num_classes();
  std::size_t flat = 1;
  for (std::size_t d : shape) flat *= d;
  switch (config.model) {
    case ModelKind::kPaperCnn: {
      APPFL_CHECK_MSG(shape.size() == 3,
                      "paper CNN expects CHW samples, got rank " << shape.size());
      return nn::paper_cnn(shape[0], shape[1], shape[2], classes, rng);
    }
    case ModelKind::kMlp:
      return nn::mlp(flat, config.mlp_hidden, classes, rng);
    case ModelKind::kLogistic:
      return nn::logistic_regression(flat, classes, rng);
  }
  APPFL_CHECK(false);
  return nullptr;
}

std::unique_ptr<BaseServer> build_server(const RunConfig& config,
                                         std::unique_ptr<nn::Module> model,
                                         data::TensorDataset test_set,
                                         std::size_t num_clients) {
  switch (config.algorithm) {
    case Algorithm::kFedAvg:
      return std::make_unique<FedAvgServer>(config, std::move(model),
                                            std::move(test_set), num_clients);
    case Algorithm::kIceAdmm:
      return std::make_unique<IceAdmmServer>(config, std::move(model),
                                             std::move(test_set), num_clients);
    case Algorithm::kIIAdmm:
      return std::make_unique<IIAdmmServer>(config, std::move(model),
                                            std::move(test_set), num_clients);
    case Algorithm::kFedProx:
      // FedProx aggregates exactly like FedAvg.
      return std::make_unique<FedProxServer>(config, std::move(model),
                                             std::move(test_set), num_clients);
  }
  APPFL_CHECK(false);
  return nullptr;
}

std::unique_ptr<BaseClient> build_client(std::uint32_t id,
                                         const RunConfig& config,
                                         const nn::Module& prototype,
                                         data::TensorDataset dataset) {
  switch (config.algorithm) {
    case Algorithm::kFedAvg:
      return std::make_unique<FedAvgClient>(id, config, prototype,
                                            std::move(dataset));
    case Algorithm::kIceAdmm:
      return std::make_unique<IceAdmmClient>(id, config, prototype,
                                             std::move(dataset));
    case Algorithm::kIIAdmm:
      return std::make_unique<IIAdmmClient>(id, config, prototype,
                                            std::move(dataset));
    case Algorithm::kFedProx:
      return std::make_unique<FedProxClient>(id, config, prototype,
                                             std::move(dataset));
  }
  APPFL_CHECK(false);
  return nullptr;
}

namespace {

/// Validation task `task` of `w` (BaseServer::count_correct) in an
/// fl.validate span under `parent`: pool threads start with empty span
/// stacks, so the lexical parent link does not cross the dispatch.
std::size_t validation_task(const BaseServer& server, std::span<const float> w,
                            std::size_t task, std::uint64_t parent) {
  obs::ScopedSpan span("fl.validate", "fl");
  span.set_parent(parent);
  span.set_arg("batch", task);
  return server.count_correct(w, task);
}

/// The round loop, on a config the env pass and validate() already saw.
RunResult run_rounds(const RunConfig& config, BaseServer& server,
                     std::vector<std::unique_ptr<BaseClient>>& clients) {
  tensor::apply_kernel_config(config.kernel_backend, config.kernel_threads);
  const std::size_t num_clients = clients.size();
  APPFL_CHECK(num_clients >= 1);
  APPFL_CHECK(server.num_clients() == num_clients);

  comm::ReliabilityConfig reliability;
  reliability.faults = config.faults;
  reliability.gather_timeout_s = config.gather_timeout_s;
  reliability.ack_timeout_s = config.ack_timeout_s;
  reliability.backoff_cap_s =
      std::max(config.ack_timeout_s, reliability.backoff_cap_s);
  reliability.max_retries = config.max_uplink_retries;
  reliability.mailbox_capacity = config.mailbox_capacity;
  comm::CodecConfig codec_config{config.uplink_codec, config.topk_fraction};
  if (config.uplink_codec == comm::UplinkCodec::kInt8Ef &&
      config.clip > 0.0F) {
    // Clip the pre-quantization deltas to the DP sensitivity bound — the
    // largest honest per-round displacement — so one outlier coordinate
    // cannot blow up a whole block's quantization scale.
    codec_config.int8_range = config.sensitivity();
  }
  comm::Communicator comm(config.protocol, num_clients,
                          rng::derive_seed(config.seed, {77}), codec_config,
                          reliability);
  util::ThreadPool pool;
  rng::Rng sampler(rng::derive_seed(config.seed, {78}));

  // Observability session: raises the process level for this run, clears
  // the global tracer/registry when enabled, streams per-round JSONL lines,
  // and exports trace + summary at the end. At level off every hook below
  // is a single relaxed atomic load, and the run is bit-identical.
  ObsSession obs_session(config);

  RunResult result;
  result.model_parameters = server.num_parameters();

  RunCheckpoints ckpts(
      config, {.flavor = RunFingerprint::Flavor::kRound,
               .seed = config.seed,
               .num_clients = static_cast<std::uint32_t>(num_clients),
               .param_count = server.num_parameters(),
               .total = config.rounds});
  dp::PrivacyAccountant accountant(num_clients);
  // ε is spent once per round by each client that releases an update
  // (basic composition); ε = ∞ rounds are accounted as zero leakage.
  const double round_epsilon = std::isfinite(config.epsilon) ? config.epsilon : 0.0;

  // Per-client uplink fault attribution (retransmits, corrupt frames): the
  // communicator counts cumulatively, the ledger wants per-round deltas.
  std::vector<comm::Communicator::UplinkHealth> prev_uplink;

  std::uint32_t start_round = 1;
  if (const std::optional<RunCheckpoint> rc = ckpts.resume()) {
    server.import_state(rc->server);  // also cross-checks the kind tag
    for (std::size_t p = 0; p < num_clients; ++p) {
      clients[p]->import_state(rc->clients[p]);
      accountant.restore_spent(p, rc->clients[p].dp_spent);
    }
    sampler.set_state(rc->rng_state);
    comm.restore_persistent_state(rc->comm);
    start_round = static_cast<std::uint32_t>(rc->completed) + 1;
    result.resumed_from_round = start_round - 1;
  }

  for (std::uint32_t round = start_round; round <= config.rounds; ++round) {
    obs::ScopedSpan round_span("fl.round", "fl");
    round_span.set_arg("round", round);
    obs::flight_record("round.start",
                       "{\"round\":" + std::to_string(round) + "}");
    const double sim_round_start = comm.clock().now();
    // (0) Client sampling: all clients at fraction 1, otherwise ⌈f·P⌉
    // distinct ids drawn from the seed-derived stream.
    const std::vector<std::uint32_t> participants =
        sample_fraction(sampler, num_clients, config.client_fraction);

    // (1) Global update + broadcast to the round's participants. The stats
    // snapshot brackets the whole round, broadcast included, so the
    // per-round metric deltas add up to the run totals.
    const comm::TrafficStats before = comm.stats();
    const std::vector<float> w = [&] {
      APPFL_SPAN("fl.compute_global", "fl");
      return server.compute_global(round);
    }();
    comm::Message global;
    global.kind = comm::MessageKind::kGlobalModel;
    global.sender = 0;
    global.round = round;
    global.primal = w;
    global.rho = server.current_rho();  // ρ^t in force (adaptive-ρ support)
    comm.broadcast_global(global, participants);

    // (2) Parallel client updates. Each participant pulls w from its
    // mailbox (already delivered, so no deadlock with a small pool),
    // trains, sends. A client whose downlink was lost sits the round out;
    // one whose uplink was lost is told so (ADMM clients roll their
    // speculative dual update back).
    //
    // Validation of w (§II-A5) only reads w and the server's model, so its
    // tasks queue behind the participants in the same pool dispatch and
    // fill the threads the short clients leave idle.
    //
    // Secure-aggregation mode splits the uplink into a share-distribution
    // phase (kSecAggShares → U2) and a masked-upload phase (U2 members
    // only → U3); see core/secure_round.hpp.
    std::vector<char> trained(num_clients, 0);
    SecureRound::Result secured;  // the secure round's outcome
    const bool track_health = obs_session.metrics_enabled();
    std::optional<SecureRound> secure;
    if (config.secure_agg) secure.emplace(config, participants, round);
    // Client `id`'s uplink of `m` (update, share packet or masked upload):
    // a loss counts as a dropped frame. Returns whether it arrived.
    const auto uplink = [&](std::uint32_t id, const comm::Message& m) {
      const bool delivered = comm.send_update(id, m);
      if (track_health && !delivered) {
        obs_session.health().add_dropped_frames(id, 1);
      }
      return delivered;
    };
    const bool validating =
        config.validate_every_round || round == config.rounds;
    std::vector<std::size_t> correct(validating ? server.validation_tasks()
                                                : 0);
    {
      // The wall time of this block is the round's parallel local-update
      // phase — the numerator's complement in the Fig 3b gather-share
      // breakdown (bench/phase_breakdown).
      obs::ScopedSpan phase_span("fl.local_update_phase", "fl");
      phase_span.set_arg("participants", participants.size());
      // Pool workers have their own (empty) span stacks, so the lexical
      // parent link does not cross the dispatch; hand the phase's id in.
      const std::uint64_t phase_id = phase_span.id();
      const std::size_t tasks = participants.size() + correct.size();
      pool.parallel_for(tasks, [&](std::size_t i) {
        if (i >= participants.size()) {
          const std::size_t task = i - participants.size();
          correct[task] = validation_task(server, w, task, phase_id);
          return;
        }
        const std::uint32_t id = participants[i];
        obs::ScopedSpan client_span("fl.client_update", "fl");
        client_span.set_parent(phase_id);
        client_span.set_arg("client", id);
        const std::optional<comm::Message> incoming =
            comm.try_recv_global(id, round);
        if (!incoming) {
          // Downlink loss: the client never saw this round.
          if (track_health) obs_session.health().note_dropout(id);
          return;
        }
        trained[id - 1] = 1;
        const auto train_start = std::chrono::steady_clock::now();
        comm::Message update = clients[id - 1]->handle_global(*incoming);
        if (track_health) {
          obs_session.health().observe_latency(
              id, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - train_start)
                      .count());
        }
        if (secure) {
          // Secure mode: hold the update, distribute Shamir shares first.
          // The share uplink rides the same reliability plane (retransmit,
          // deadline) as any update; losing it drops this client from U2.
          uplink(id, secure->share_message(i, std::move(update)));
          return;
        }
        clients[id - 1]->on_uplink_result(uplink(id, update));
      });
    }

    if (secure) {
      // Share gather decides U2 (share-distribution survivors); the server
      // then releases the masked-upload phase for exactly that set. A
      // trained client outside U2 is told its uplink failed — its masks
      // could never be removed, so its update must not enter the sum.
      for (const comm::Message& m :
           comm.gather_secagg_shares(round, participants.size())) {
        secure->deposit_share(m.sender, m.primal);
      }
      secure->close_share_wave();
      obs::ScopedSpan phase_span("fl.masked_upload_phase", "fl");
      phase_span.set_arg("u2", secure->u2().size());
      const std::uint64_t phase_id = phase_span.id();
      pool.parallel_for(participants.size(), [&](std::size_t i) {
        const std::uint32_t id = participants[i];
        if (!trained[id - 1]) return;
        obs::ScopedSpan client_span("fl.masked_upload", "fl");
        client_span.set_parent(phase_id);
        client_span.set_arg("client", id);
        if (!secure->uploads(i)) {
          // Its share packet (or too many others) never reached the server:
          // its masks cannot be removed, so its update is discarded. Outside
          // U2 that is one share discard, whether or not the round recovers.
          if (track_health && !secure->in_u2(i)) {
            obs_session.health().add_share_discards(id, 1);
          }
          clients[id - 1]->on_uplink_result(false);
          return;
        }
        clients[id - 1]->on_uplink_result(
            uplink(id, secure->masked_upload(i)));
      });
    }

    // (3) Gather + server-side absorption (tolerates partial rounds). The
    // batch keeps the decoded wire payloads alive so the server can absorb
    // them in place; owning Messages are materialized only for a server
    // without absorb(), which aggregates through update().
    // Secure mode gathers MASKED uploads: the expected count is |U2| (only
    // U2 members send), and the gather still runs when the round already
    // degraded so the round keeps its comm record and timeline.
    const std::size_t expected_uploads =
        secure ? std::max<std::size_t>(secure->u2().size(), 1)
               : participants.size();
    const comm::GatherBatch batch = [&] {
      APPFL_SPAN("fl.gather_phase", "fl");
      return comm.gather_batch(round, expected_uploads);
    }();
    double loss_acc = 0.0;
    std::uint64_t samples = 0;
    for (const auto& u : batch.updates()) {
      loss_acc += u.loss * static_cast<double>(u.sample_count);
      samples += u.sample_count;
    }
    const double train_loss =
        samples > 0 ? loss_acc / static_cast<double>(samples) : 0.0;
    if (!secure) {
      APPFL_SPAN("fl.aggregate", "fl");
      if (!server.absorb(batch, w, round)) {
        const std::vector<comm::Message> locals = batch.take_messages();
        server.update(locals, w, round);
      }
    } else {
      APPFL_SPAN("fl.secagg_unmask", "fl");
      // U3 = upload survivors. Below threshold the round skips the model
      // update, counts itself and keeps running — graceful degradation,
      // never a partial unmask; the reason names where the cohort thinned.
      secured = secure->unmask(batch.updates());
      if (secured.degrade == SecaggDegradeReason::kNone) {
        // One synthesized update carrying the recovered survivor mean:
        // FedAvg/FedProx's weighted mean of a single message is that
        // message, so the server classes need no secure-agg awareness.
        std::vector<comm::Message> locals(1);
        comm::Message& synth = locals.front();
        synth.kind = comm::MessageKind::kLocalUpdate;
        synth.sender = batch.updates().front().sender;
        synth.round = round;
        synth.sample_count = samples;
        synth.loss = train_loss;
        synth.primal = std::move(secured.mean);
        server.update(locals, w, round);
      }
    }
    const comm::TrafficStats after = comm.stats();
    round_span.set_sim(sim_round_start,
                      comm.clock().now() - sim_round_start);
    // Every client that trained released a perturbed update, so it spent
    // this round's ε whether or not the network delivered it.
    for (std::size_t p = 0; p < num_clients; ++p) {
      if (trained[p]) accountant.spend(p, round_epsilon);
    }
    if (track_health) {
      for (std::size_t p = 0; p < num_clients; ++p) {
        if (trained[p]) {
          obs_session.health().set_dp_epsilon(
              static_cast<std::uint32_t>(p + 1), accountant.spent(p));
        }
      }
      // Fold this round's communicator-attributed faults into the ledger.
      std::vector<comm::Communicator::UplinkHealth> uh = comm.uplink_health();
      for (std::size_t p = 0; p < uh.size(); ++p) {
        const comm::Communicator::UplinkHealth base =
            p < prev_uplink.size() ? prev_uplink[p]
                                   : comm::Communicator::UplinkHealth{};
        const std::uint32_t id = static_cast<std::uint32_t>(p + 1);
        if (uh[p].retransmits > base.retransmits) {
          obs_session.health().add_retransmits(
              id, uh[p].retransmits - base.retransmits);
        }
        if (uh[p].corrupt > base.corrupt) {
          obs_session.health().add_corrupt_frames(id,
                                                  uh[p].corrupt - base.corrupt);
        }
      }
      prev_uplink = std::move(uh);
    }

    // (4) Metrics.
    RoundMetrics metrics;
    metrics.round = round;
    metrics.rho = global.rho;
    metrics.participants = participants.size();
    metrics.responders = batch.size();
    metrics.drops = after.drops - before.drops;
    metrics.retries = after.retries - before.retries;
    metrics.crc_failures = after.crc_failures - before.crc_failures;
    metrics.discards = after.discards - before.discards;
    metrics.timeouts = after.gather_timeouts - before.gather_timeouts;
    if (secure) {
      obs_session.secagg_round(secured.reconstructions, secured.degrade,
                               metrics, result);
    }
    metrics.train_loss = train_loss;
    const auto& rec = comm.round_log().back();
    metrics.broadcast_s = rec.broadcast_s;
    metrics.gather_s = rec.gather_s;
    metrics.test_accuracy = validating ? server.accuracy(correct) : -1.0;
    if (comm.fault_plane_active()) {
      APPFL_LOG_DEBUG(to_string(config.algorithm)
                      << " round " << round << ": loss=" << metrics.train_loss
                      << " acc=" << metrics.test_accuracy << " responders="
                      << metrics.responders << "/" << metrics.participants
                      << " drops=" << metrics.drops << " retries="
                      << metrics.retries << " crc=" << metrics.crc_failures
                      << " discards=" << metrics.discards
                      << " timeouts=" << metrics.timeouts);
    } else {
      APPFL_LOG_DEBUG(to_string(config.algorithm)
                      << " round " << round << ": loss=" << metrics.train_loss
                      << " acc=" << metrics.test_accuracy);
    }
    result.rounds.push_back(metrics);
    obs_session.write_round(metrics);

    // (5) Round checkpoint: captured after the server absorbed the round,
    // so a restart replays nothing and skips nothing.
    ckpts.maybe_save(round, [&](RunCheckpoint& rc) {
      rc.parameters = w;
      rc.server = server.export_state();
      for (std::size_t p = 0; p < num_clients; ++p) {
        rc.clients.push_back(clients[p]->export_state());
        rc.clients.back().dp_spent = accountant.spent(p);
      }
      rc.rng_state = sampler.state();
      rc.comm = comm.persistent_state();
    });
    if (ckpts.halts_at(round)) break;
  }

  // Final validation on the post-absorption global parameters, its tasks
  // fanned out over the client pool.
  const std::vector<float> w_final =
      server.compute_global(static_cast<std::uint32_t>(config.rounds + 1));
  std::vector<std::size_t> final_correct(server.validation_tasks());
  pool.parallel_for(final_correct.size(), [&](std::size_t task) {
    final_correct[task] = validation_task(server, w_final, task, 0);
  });
  result.final_accuracy = server.accuracy(final_correct);
  result.final_parameters = w_final;
  result.dp_epsilon_spent = accountant.max_spent();
  result.traffic = comm.stats();
  result.comm_rounds = comm.round_log();
  result.sim_comm_seconds = comm.clock().now();
  result.checkpoints_written = ckpts.written();
  result.config = config;
  obs_session.finish(result);
  return result;
}

}  // namespace

RunResult run_federated(const RunConfig& configured,
                        const data::FederatedSplit& split) {
  const RunConfig config = with_env_overrides(configured);
  config.validate();
  APPFL_CHECK_MSG(!split.clients.empty(), "split has no clients");

  std::unique_ptr<nn::Module> model = build_model(config, split.test);
  // The prototype is cloned per client BEFORE the server takes ownership,
  // so everyone starts from the same z¹ (the one-time init exchange).
  std::vector<std::unique_ptr<BaseClient>> clients;
  clients.reserve(split.clients.size());
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(build_client(static_cast<std::uint32_t>(p + 1), config,
                                   *model, split.clients[p]));
  }
  std::unique_ptr<BaseServer> server =
      build_server(config, std::move(model), split.test, clients.size());
  return run_rounds(config, *server, clients);
}

RunResult run_federated(const RunConfig& configured, BaseServer& server,
                        std::vector<std::unique_ptr<BaseClient>>& clients) {
  const RunConfig config = with_env_overrides(configured);
  config.validate();
  return run_rounds(config, server, clients);
}

}  // namespace appfl::core

#include "core/event_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>

#include "comm/cost_model.hpp"
#include "comm/envelope.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/sim_clock.hpp"
#include "core/aggregate.hpp"
#include "core/checkpoint.hpp"
#include "core/evaluation.hpp"
#include "core/obs_session.hpp"
#include "core/options.hpp"
#include "core/sampling.hpp"
#include "hw/device.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace appfl::core {

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
#else
  return 0;
#endif
}

namespace {

// RNG streams owned by the engine (see rng::derive_seed): 79 = population
// sampler (rides the checkpoint), 0x6A1/0x6A2 = per-(round, slot) gRPC
// down/uplink jitter, 77 = fault-injector seed (slot-link keyed).
constexpr std::uint64_t kSamplerStream = 79;
constexpr std::uint64_t kDownJitterStream = 0x6A1;
constexpr std::uint64_t kUpJitterStream = 0x6A2;
constexpr std::uint64_t kShareJitterStream = 0x6A3;
constexpr std::uint64_t kNetStream = 77;

enum class EventKind : std::uint8_t {
  kArrival = 0,      // broadcast model reaches a participant slot
  kUplink = 1,       // a slot's update lands in its leaf leader's mailbox
  kGroupReady = 2,   // a leaf leader has every surviving child update
  kRootReduce = 3,   // the root holds every group's payload refs
  kShareArrive = 4,  // secure agg: a slot's share packet lands at the root
};

struct Event {
  double t = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break at equal times (determinism)
  EventKind kind = EventKind::kArrival;
  std::uint32_t arg = 0;  // slot (kArrival/kUplink) or group (kGroupReady)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

struct SlotOutcome {
  bool delivered = false;
  double deliver_at = 0.0;
  std::uint64_t up_bytes = 0;
};

}  // namespace

PopulationRunResult run_population(const RunConfig& configured,
                                   const data::SyntheticPopulation& population) {
  const RunConfig config = with_env_overrides(configured);
  config.validate();
  APPFL_CHECK_MSG(config.population > 0,
                  "run_population needs config.population > 0");
  APPFL_CHECK_MSG(config.population == population.size(),
                  "config.population=" << config.population
                      << " does not match the population object's "
                      << population.size());
  APPFL_CHECK_MSG(config.population <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "population exceeds the 32-bit id space");
  tensor::apply_kernel_threads(config.kernel_threads);

  const std::size_t n = population.size();
  const std::size_t k = config.participants_per_round;
  const AggTree tree(k, config.tree_fan_out);
  const std::size_t num_groups = tree.num_leaf_groups();
  // Endpoint layout: 0 = root, 1..k = participant slots (slot i carries the
  // i-th smallest sampled id this round), k+1..k+G = leaf-leader mailboxes.
  // One network serves the whole run — fault link sequence counters persist
  // across rounds and ride the checkpoint, exactly like the Communicator's.
  const auto leader_endpoint = [k](std::size_t g) {
    return static_cast<std::uint32_t>(1 + k + g);
  };
  const bool faults_on = config.faults.enabled();
  comm::InProcNetwork net(1 + k + num_groups, config.faults,
                          rng::derive_seed(config.seed, {kNetStream}),
                          config.mailbox_capacity);
  const std::size_t env_overhead = faults_on ? comm::kEnvelopeOverhead : 0;

  data::TensorDataset test_set = population.test_set();
  std::unique_ptr<nn::Module> prototype = build_model(config, test_set);
  std::vector<float> w = prototype->flat_parameters();
  const std::size_t param_count = prototype->num_parameters();
  // local_update_flops is linear in samples × steps, so one evaluation on
  // the prototype serves every transient client (and keeps pool tasks from
  // touching the shared module).
  const double flops_per_sample_step =
      hw::local_update_flops(*prototype, 1, 1);

  comm::SimClock clock;
  util::ThreadPool pool;
  rng::Rng sampler(rng::derive_seed(config.seed, {kSamplerStream}));
  ObsSession obs_session(config);
  const bool track_health = obs_session.metrics_enabled();
  const comm::MpiCostModel mpi;
  const comm::GrpcCostModel grpc;
  const hw::DeviceProfile device = hw::v100();
  const bool is_grpc = config.protocol == comm::Protocol::kGrpc;

  PopulationRunResult out;
  out.run.model_parameters = param_count;
  out.engine.tree_depth = tree.depth();
  out.engine.tree_leaf_groups = num_groups;

  // Engine-owned ledger. The network owns the fault and live overflow
  // counters; current_stats() folds them in, like Communicator::stats().
  comm::TrafficStats stats;
  const auto current_stats = [&] {
    return comm::fold_network_stats(stats, net);
  };

  // Sparse DP ledger: id → rounds this client released an update. ε_p =
  // count × per-round ε under basic composition; memory is O(distinct
  // participants), never O(population).
  std::unordered_map<std::uint32_t, std::uint32_t> participation;
  const double round_epsilon =
      std::isfinite(config.epsilon) ? config.epsilon : 0.0;

  RunCheckpoints ckpts(
      config, {.flavor = RunFingerprint::Flavor::kRound,
               .seed = config.seed,
               .num_clients = static_cast<std::uint32_t>(n),
               .participants_per_round = static_cast<std::uint32_t>(k),
               .param_count = param_count,
               .total = config.rounds});
  std::uint32_t start_round = 1;
  if (const std::optional<RunCheckpoint> rc = ckpts.resume()) {
    w = rc->parameters;
    sampler.set_state(rc->rng_state);
    participation.clear();
    for (const auto& [id, count] : rc->participation) participation[id] = count;
    clock.sync_to(rc->comm.sim_now);
    stats = rc->comm.stats;
    comm::restore_network_state(net, rc->comm);
    start_round = static_cast<std::uint32_t>(rc->completed) + 1;
    out.run.resumed_from_round = start_round - 1;
  }

  // Secure aggregation (core/secure_round.hpp): share packets ride their own
  // slot → root links (endpoint 0) of the fault-injected network, masked
  // uploads the ordinary tree, and the root reduce becomes an unmask.
  const bool secure = config.secure_agg;
  const std::size_t expected_primal =
      secure ? masked_upload_floats(param_count) : param_count;

  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t events_processed = 0;

  for (std::uint32_t round = start_round; round <= config.rounds; ++round) {
    obs::ScopedSpan round_span("fl.round", "fl");
    round_span.set_arg("round", round);
    obs::flight_record("round.start",
                       "{\"round\":" + std::to_string(round) + "}");
    const double sim_round_start = clock.now();
    const comm::TrafficStats before = current_stats();

    const std::vector<std::uint32_t> participants =
        sample_k_of_n(sampler, n, k);
    out.participants_by_round.push_back(participants);

    // Broadcast: one canonical message; every slot reads the same bytes, so
    // the engine encodes once for size accounting and hands the message by
    // reference (the uplink direction is the one that really crosses the
    // network — that is where the tree lives).
    comm::Message global;
    global.kind = comm::MessageKind::kGlobalModel;
    global.sender = 0;
    global.round = round;
    global.primal = w;
    global.rho = config.rho;
    const std::size_t down_bytes =
        (is_grpc ? comm::proto_encoded_size(global)
                 : comm::raw_encoded_size(global)) +
        env_overhead;
    stats.messages_down += k;
    stats.bytes_down += static_cast<std::uint64_t>(k) * down_bytes;

    std::priority_queue<Event, std::vector<Event>, EventLater> queue;
    std::uint64_t seq = 0;
    double bcast_done = sim_round_start;
    if (is_grpc) {
      for (std::size_t i = 0; i < k; ++i) {
        rng::Rng jitter(
            rng::derive_seed(config.seed, {kDownJitterStream, round, i}));
        const double at =
            sim_round_start + grpc.transfer_seconds(down_bytes, jitter);
        bcast_done = std::max(bcast_done, at);
        queue.push({at, seq++, EventKind::kArrival,
                    static_cast<std::uint32_t>(i)});
      }
    } else {
      bcast_done = sim_round_start + mpi.broadcast_seconds(k, down_bytes);
      for (std::size_t i = 0; i < k; ++i) {
        queue.push({bcast_done, seq++, EventKind::kArrival,
                    static_cast<std::uint32_t>(i)});
      }
    }

    // Per-round slot-indexed state. Heavy handlers write only their own
    // slot/group entry, so results are independent of pool thread count.
    std::vector<SlotOutcome> slots(k);
    std::vector<std::vector<std::uint8_t>> update_frames(k);  // validated
    std::vector<std::uint32_t> group_arrived(num_groups, 0);
    std::vector<double> group_latest(num_groups, 0.0);
    std::vector<std::uint64_t> group_crc(num_groups, 0);
    std::vector<std::uint64_t> group_discards(num_groups, 0);
    std::size_t slots_outstanding = k;
    std::size_t uplinks_outstanding = 0;
    std::size_t groups_outstanding = 0;
    bool groups_scheduled = false;
    double root_ready = 0.0;
    double round_end = bcast_done;
    std::size_t responders = 0;
    double round_loss = 0.0;
    double gather_s = 0.0;

    // Secure-aggregation round state: pool handlers touch only their own
    // slot; deposits, U2 and the unmask run on the orchestration thread.
    std::optional<SecureRound> secure_round;
    if (secure) secure_round.emplace(config, participants, round);
    std::size_t shares_outstanding = 0;
    double share_latest = bcast_done;
    bool masked_phase_done = !secure;  // plain mode: no share phase to wait on
    bool root_reduced = false;
    SecureRound::Result secured;  // the secure round's outcome

    // Slot `slot` sends `m` to endpoint `to` at `t_send`: encode, gRPC
    // jitter from `jitter_stream`, CRC envelope, network. Records the frame
    // in slots[slot], counts one that does not arrive intact as a dropped
    // frame, and returns whether it arrived intact (the sender's ack).
    const auto send_uplink = [&](std::size_t slot, const comm::Message& m,
                                 std::uint32_t to, std::uint64_t jitter_stream,
                                 double t_send) {
      std::vector<std::uint8_t> bytes =
          is_grpc ? comm::encode_proto(m) : comm::encode_raw(m);
      double t_up = t_send;
      if (is_grpc) {
        rng::Rng jitter(
            rng::derive_seed(config.seed, {jitter_stream, round, slot}));
        t_up += grpc.transfer_seconds(bytes.size() + env_overhead, jitter);
      }
      if (faults_on) bytes = comm::seal_envelope(std::move(bytes));
      const std::size_t up_bytes = bytes.size();
      const comm::InProcNetwork::SendOutcome outcome =
          net.send(static_cast<std::uint32_t>(1 + slot), to, std::move(bytes),
                   t_up);
      slots[slot] = {outcome.delivered, outcome.deliver_at, up_bytes};
      const bool intact = outcome.delivered && !outcome.corrupted;
      if (track_health && !intact) {
        obs_session.health().add_dropped_frames(participants[slot], 1);
      }
      return intact;
    };

    // Folds slot `slot`'s sent uplink into the traffic ledger and, when it
    // was delivered, queues its arrival as a `kind` event. Runs on the
    // orchestration thread in event (or slot) order.
    const auto fold_uplink = [&](std::size_t slot, EventKind kind) {
      const SlotOutcome& so = slots[slot];
      stats.messages_up += 1;
      stats.bytes_up += so.up_bytes;
      stats.bytes_up_precodec += so.up_bytes;  // codec is always off
      if (so.delivered) {
        queue.push({so.deliver_at, seq++, kind,
                    static_cast<std::uint32_t>(slot)});
      }
      return so.delivered;
    };

    // The frame check of both drains (root shares, leader updates): CRC, a
    // sender among slots [lo, hi), and a decodable `kind` frame of this
    // round from the slot's participant (an update of the model's size). A
    // bad CRC counts in `crc`, other rejects in `discards`. The view
    // borrows `d`'s bytes.
    const auto check_frame =
        [&](const comm::Datagram& d, comm::MessageKind kind, std::size_t lo,
            std::size_t hi, std::uint64_t& crc,
            std::uint64_t& discards) -> std::optional<comm::MessageView> {
      std::span<const std::uint8_t> body(d.bytes);
      if (faults_on) {
        const auto opened = comm::open_envelope(body);
        if (!opened) {
          ++crc;
          return std::nullopt;
        }
        body = *opened;
      }
      if (d.from >= 1 + lo && d.from < 1 + hi) {
        try {
          const comm::MessageView v = is_grpc ? comm::decode_proto_view(body)
                                              : comm::decode_raw_view(body);
          if (v.kind == kind && v.round == round &&
              v.sender == participants[d.from - 1] &&
              (kind != comm::MessageKind::kLocalUpdate ||
               v.primal.size() == expected_primal)) {
            return v;
          }
        } catch (const Error&) {
        }
      }
      ++discards;
      return std::nullopt;
    };

    // Group readiness can only be decided once every training executed and
    // every surviving uplink's arrival has been observed — a late gRPC
    // arrival may interleave with another slot's uplink in event order.
    // Secure mode additionally gates on the masked-upload phase: group
    // mailboxes stay empty until the root has announced U2.
    const auto maybe_schedule_groups = [&] {
      if (!masked_phase_done || groups_scheduled || slots_outstanding > 0 ||
          uplinks_outstanding > 0)
        return;
      groups_scheduled = true;
      for (std::size_t g = 0; g < num_groups; ++g) {
        if (group_arrived[g] == 0) continue;
        queue.push({group_latest[g], seq++, EventKind::kGroupReady,
                    static_cast<std::uint32_t>(g)});
        ++groups_outstanding;
      }
    };

    // Secure mode, end of the share phase: every training ran and every
    // surviving share packet's arrival has been observed. The root drains
    // its mailbox to decide U2 and releases the masked uploads (U2 slots
    // only) into the ordinary uplink pipeline. Below threshold the round
    // degrades here — no masked upload is ever sent.
    const auto maybe_start_masked_phase = [&] {
      if (masked_phase_done || slots_outstanding > 0 || shares_outstanding > 0)
        return;
      masked_phase_done = true;
      obs::ScopedSpan span("fl.secagg_share_gather", "fl");
      while (std::optional<comm::Datagram> d = net.try_recv(0)) {
        const std::optional<comm::MessageView> v =
            check_frame(*d, comm::MessageKind::kSecAggShares, 0, k,
                        stats.crc_failures, stats.discards);
        if (!v) continue;
        try {
          if (secure_round->deposit_share(v->sender, v->primal.to_vector())) {
            continue;
          }
        } catch (const Error&) {
        }
        ++stats.discards;  // duplicate delivery or tampered packet
      }
      const bool recoverable = secure_round->close_share_wave();
      span.set_arg("u2", secure_round->u2().size());
      // Every slot trained and sent one share packet. A complete share phase
      // ends with the last arrival; a lossy one runs into the server's
      // gather deadline before U2 is frozen.
      const double u2_time =
          secure_round->u2().size() == k
              ? share_latest
              : std::max(share_latest, bcast_done + config.gather_timeout_s);
      round_end = std::max(round_end, u2_time);
      if (track_health) {
        // Slots outside U2: their share packet was lost, and their update
        // is discarded with it, whether or not the round recovers.
        for (std::size_t slot = 0; slot < k; ++slot) {
          if (!secure_round->in_u2(slot)) {
            obs_session.health().add_share_discards(participants[slot], 1);
          }
        }
      }
      if (!recoverable) {
        // Too few share packets survived: nobody uploads this round.
        secured.degrade = SecaggDegradeReason::kShareWaveTimeout;
        maybe_schedule_groups();
        return;
      }
      pool.parallel_for(k, [&](std::size_t slot) {
        if (!secure_round->uploads(slot)) return;
        send_uplink(slot, secure_round->masked_upload(slot),
                    leader_endpoint(tree.group_of(slot)), kUpJitterStream,
                    u2_time);
      });
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (secure_round->uploads(slot) &&
            fold_uplink(slot, EventKind::kUplink)) {
          ++uplinks_outstanding;
        }
      }
      maybe_schedule_groups();
    };

    while (!queue.empty()) {
      // Wave batching: consecutive same-kind events at the queue front run
      // as one pool dispatch. An event of another kind bounds the wave, so
      // cross-kind causality (uplink bookkeeping between arrival waves)
      // still executes in event order.
      const EventKind kind = queue.top().kind;
      std::vector<Event> wave;
      while (!queue.empty() && queue.top().kind == kind) {
        wave.push_back(queue.top());
        queue.pop();
      }
      events_processed += wave.size();

      switch (kind) {
        case EventKind::kArrival: {
          obs::ScopedSpan phase("fl.local_update_phase", "fl");
          phase.set_arg("participants", wave.size());
          // Pool workers have empty span stacks; hand the phase id across.
          const std::uint64_t phase_id = phase.id();
          pool.parallel_for(wave.size(), [&](std::size_t wi) {
            const std::uint32_t slot = wave[wi].arg;
            const std::uint32_t id = participants[slot];
            obs::ScopedSpan client_span("fl.client_update", "fl");
            client_span.set_parent(phase_id);
            client_span.set_arg("client", id);
            // The transient client: dataset and model replica exist only
            // for this participation.
            const std::unique_ptr<BaseClient> client = build_client(
                id, config, *prototype, population.materialize(id));
            comm::Message update = client->handle_global(global);
            update.receiver = 0;
            // Trace context rides the uplink frame (nonzero only at
            // obs=trace, so obs-off bytes are unchanged).
            update.trace_span = client_span.id();
            const double train_s = device.seconds_for(
                flops_per_sample_step *
                static_cast<double>(client->num_samples()) *
                static_cast<double>(config.local_steps));
            // The engine's client latency is its simulated training cost —
            // the quantity the straggler score should rank slots by.
            if (track_health) obs_session.health().observe_latency(id, train_s);
            const double t_send = wave[wi].t + train_s;
            if (secure) {
              // Hold the update; ship the Shamir share packet to the root
              // first. Losing it on this link keeps the slot out of U2.
              client->on_uplink_result(send_uplink(
                  slot, secure_round->share_message(slot, std::move(update)),
                  0, kShareJitterStream, t_send));
              return;
            }
            client->on_uplink_result(send_uplink(
                slot, update, leader_endpoint(tree.group_of(slot)),
                kUpJitterStream, t_send));
          });
          // Fold on the orchestration thread, in wave (event) order.
          for (const Event& e : wave) {
            --slots_outstanding;
            ++participation[participants[e.arg]];  // trained ⇒ ε spent
            if (fold_uplink(e.arg, secure ? EventKind::kShareArrive
                                          : EventKind::kUplink)) {
              secure ? ++shares_outstanding : ++uplinks_outstanding;
            }
          }
          if (secure) maybe_start_masked_phase();
          maybe_schedule_groups();
          break;
        }

        case EventKind::kShareArrive: {
          for (const Event& e : wave) {
            share_latest = std::max(share_latest, e.t);
            --shares_outstanding;
          }
          maybe_start_masked_phase();
          break;
        }

        case EventKind::kUplink: {
          for (const Event& e : wave) {
            const std::size_t g = tree.group_of(e.arg);
            ++group_arrived[g];
            group_latest[g] = std::max(group_latest[g], e.t);
            --uplinks_outstanding;
          }
          maybe_schedule_groups();
          break;
        }

        case EventKind::kGroupReady: {
          obs::ScopedSpan span("fl.tree.leader", "fl");
          span.set_arg("leaders", wave.size());
          // Leaf leaders drain and validate their children's mailboxes in
          // parallel; payload buffers move into slot-indexed storage and
          // are NOT summed here (see agg_tree.hpp for the bit-identity
          // argument).
          pool.parallel_for(wave.size(), [&](std::size_t wi) {
            const std::uint32_t g = wave[wi].arg;
            const auto [lo, hi] = tree.leaf_group(g);
            while (std::optional<comm::Datagram> d =
                       net.try_recv(leader_endpoint(g))) {
              if (!check_frame(*d, comm::MessageKind::kLocalUpdate, lo, hi,
                               group_crc[g], group_discards[g])) {
                continue;
              }
              std::vector<std::uint8_t>& frame = update_frames[d->from - 1];
              if (!frame.empty()) {  // duplicate delivery
                ++group_discards[g];
                continue;
              }
              frame = std::move(d->bytes);
            }
          });
          for (const Event& e : wave) {
            --groups_outstanding;
            root_ready = std::max(root_ready, e.t);
          }
          if (groups_scheduled && groups_outstanding == 0) {
            queue.push({root_ready, seq++, EventKind::kRootReduce, 0});
          }
          break;
        }

        case EventKind::kRootReduce: {
          // The numeric reduce: slot-ordered terms, one weighted_sum_stream
          // (or one unmask) — the tree contributed routing and cost, never
          // float order.
          std::vector<comm::GatherUpdate> updates;
          updates.reserve(k);
          std::size_t max_up_bytes = 0;
          for (std::size_t slot = 0; slot < k; ++slot) {
            if (update_frames[slot].empty()) continue;
            std::span<const std::uint8_t> body(update_frames[slot]);
            if (faults_on) body = *comm::open_envelope(body);
            const comm::MessageView v = is_grpc ? comm::decode_proto_view(body)
                                                : comm::decode_raw_view(body);
            comm::GatherUpdate& u = updates.emplace_back();
            u.sender = v.sender;
            u.sample_count = v.sample_count;
            u.loss = v.loss;
            u.primal =
                comm::WirePayload::f32_bytes(v.primal.bytes(), v.primal.size());
            max_up_bytes = std::max(max_up_bytes, slots[slot].up_bytes);
          }
          responders = updates.size();
          double loss_acc = 0.0;
          std::uint64_t samples = 0;
          for (const comm::GatherUpdate& u : updates) {
            loss_acc += u.loss * static_cast<double>(u.sample_count);
            samples += u.sample_count;
          }
          const auto total_samples = static_cast<double>(samples);
          round_loss =
              samples > 0 ? loss_acc / static_cast<double>(samples) : 0.0;
          root_reduced = true;
          if (secure) {
            // U3 is the responder set, in slot (ascending sender) order.
            APPFL_SPAN("fl.secagg_unmask", "fl");
            secured = secure_round->unmask(updates);
            // |U3| < t leaves the model unchanged.
            if (secured.degrade == SecaggDegradeReason::kNone) {
              w = std::move(secured.mean);
            }
          } else if (!updates.empty()) {
            std::vector<StreamTerm> terms;
            terms.reserve(updates.size());
            for (const comm::GatherUpdate& u : updates) {
              const float weight =
                  config.weighted_aggregation && total_samples > 0.0
                      ? static_cast<float>(
                            static_cast<double>(u.sample_count) /
                            total_samples)
                      : 1.0F / static_cast<float>(updates.size());
              terms.push_back({u.primal, weight});
            }
            APPFL_SPAN("fl.aggregate", "fl");
            weighted_sum_stream(terms, std::span<float>(w));
          }
          // Hierarchical sim cost: levels sequential, nodes within a level
          // concurrent, one span per level.
          double t_level = wave.front().t;
          std::size_t level = 0;
          for (const std::size_t fan_in : tree.level_fan_ins()) {
            obs::ScopedSpan level_span("fl.tree.level", "fl");
            level_span.set_arg("level", level);
            level_span.set_arg("fan_in", fan_in);
            const double dur = mpi.gather_seconds(fan_in, max_up_bytes);
            level_span.set_sim(t_level, dur);
            t_level += dur;
            ++level;
          }
          gather_s = t_level - wave.front().t;
          round_end = std::max(round_end, t_level);
          break;
        }
      }
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      stats.crc_failures += group_crc[g];
      stats.discards += group_discards[g];
    }
    // Secure mode with every masked upload lost: the root reduce never
    // fired, so the below-threshold outcome is decided here.
    if (secure && !root_reduced &&
        secured.degrade == SecaggDegradeReason::kNone) {
      secured.degrade = SecaggDegradeReason::kRootUnreachable;
    }
    if (track_health) {
      for (std::size_t slot = 0; slot < k; ++slot) {
        // No slot is a dropout: the broadcast is never faulted, so every
        // slot receives the round's model, and an update lost on the way
        // to the root is a dropped frame.
        const std::uint32_t id = participants[slot];
        const auto it = participation.find(id);
        if (it != participation.end()) {
          obs_session.health().set_dp_epsilon(
              id, static_cast<double>(it->second) * round_epsilon);
        }
      }
    }
    clock.sync_to(round_end);
    const comm::TrafficStats after = current_stats();
    round_span.set_sim(sim_round_start, clock.now() - sim_round_start);

    RoundMetrics metrics;
    metrics.round = round;
    metrics.rho = config.rho;
    metrics.participants = k;
    metrics.responders = responders;
    metrics.train_loss = round_loss;
    metrics.broadcast_s = bcast_done - sim_round_start;
    metrics.gather_s = gather_s;
    metrics.drops = after.drops - before.drops;
    metrics.crc_failures = after.crc_failures - before.crc_failures;
    metrics.discards = after.discards - before.discards;
    if (secure) {
      obs_session.secagg_round(secured.reconstructions, secured.degrade,
                               metrics, out.run);
    }
    if (config.validate_every_round || round == config.rounds) {
      APPFL_SPAN("fl.validate", "fl");
      metrics.test_accuracy =
          validation_accuracy(*prototype, w, test_set, config.validate_batch);
    } else {
      metrics.test_accuracy = -1.0;
    }
    out.run.rounds.push_back(metrics);
    comm::RoundCommRecord rec;
    rec.round = round;
    rec.broadcast_s = metrics.broadcast_s;
    rec.gather_s = metrics.gather_s;
    out.run.comm_rounds.push_back(std::move(rec));
    obs_session.write_round(metrics);

    ckpts.maybe_save(round, [&](RunCheckpoint& rc) {
      rc.parameters = w;
      rc.server.kind = "population";
      rc.rng_state = sampler.state();
      rc.participation.assign(participation.begin(), participation.end());
      std::sort(rc.participation.begin(), rc.participation.end());
      rc.comm = comm::save_comm_state(net, stats, clock.now());
    });
    if (ckpts.halts_at(round)) break;
  }

  const auto wall_end = std::chrono::steady_clock::now();
  out.engine.events_processed = events_processed;
  out.engine.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  out.engine.events_per_second =
      out.engine.wall_seconds > 0.0
          ? static_cast<double>(events_processed) / out.engine.wall_seconds
          : 0.0;
  out.engine.peak_rss_bytes = peak_rss_bytes();
  out.engine.mailbox_overflows = current_stats().mailbox_overflows;

  {
    APPFL_SPAN("fl.validate", "fl");
    out.run.final_accuracy =
        validation_accuracy(*prototype, w, test_set, config.validate_batch);
  }
  out.run.final_parameters = std::move(w);
  std::uint32_t max_count = 0;
  for (const auto& [id, count] : participation) {
    max_count = std::max(max_count, count);
  }
  out.run.dp_epsilon_spent = static_cast<double>(max_count) * round_epsilon;
  out.run.traffic = current_stats();
  out.run.sim_comm_seconds = clock.now();
  out.run.checkpoints_written = ckpts.written();
  out.run.config = config;
  obs_session.finish(out.run);
  return out;
}

}  // namespace appfl::core

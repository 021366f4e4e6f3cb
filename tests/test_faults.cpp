// Fault plane: deterministic injection, CRC envelopes, deadline gather,
// retransmission, straggler policy, and end-to-end degradation bounds.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <bit>
#include <limits>
#include <tuple>

#include "comm/communicator.hpp"
#include "comm/envelope.hpp"
#include "comm/mailbox.hpp"
#include "core/iiadmm.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"

namespace {

using appfl::comm::Communicator;
using appfl::comm::FaultConfig;
using appfl::comm::FaultInjector;
using appfl::comm::Message;
using appfl::comm::MessageKind;
using appfl::comm::Protocol;
using appfl::comm::ReliabilityConfig;

Message global_msg(std::uint32_t round, std::size_t m) {
  Message msg;
  msg.kind = MessageKind::kGlobalModel;
  msg.sender = 0;
  msg.round = round;
  msg.primal.assign(m, 0.5F);
  return msg;
}

Message local_msg(std::uint32_t client, std::uint32_t round, std::size_t m) {
  Message msg;
  msg.kind = MessageKind::kLocalUpdate;
  msg.sender = client;
  msg.round = round;
  msg.primal.assign(m, static_cast<float>(client));
  msg.sample_count = 10 * client;
  return msg;
}

// -- Configuration semantics ---------------------------------------------------

TEST(FaultConfig, EnabledOnlyWhenSomethingCanGoWrong) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.delay_max_s = 9.0;  // a bound alone injects nothing
  EXPECT_FALSE(cfg.enabled());
  for (double FaultConfig::*knob :
       {&FaultConfig::drop, &FaultConfig::duplicate, &FaultConfig::reorder,
        &FaultConfig::corrupt, &FaultConfig::delay}) {
    FaultConfig one;
    one.*knob = 0.1;
    EXPECT_TRUE(one.enabled());
  }
  FaultConfig dead;
  dead.dead = {3};
  EXPECT_TRUE(dead.enabled());
}

TEST(FaultConfig, ValidateRejectsBadRanges) {
  FaultConfig cfg;
  cfg.drop = 1.5;
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg.drop = -0.1;
  EXPECT_THROW(cfg.validate(), appfl::Error);
  cfg.drop = 0.0;
  cfg.delay = 0.5;
  cfg.delay_max_s = 0.0;
  EXPECT_THROW(cfg.validate(), appfl::Error);
}

// -- Deterministic injection ---------------------------------------------------

FaultConfig mixed_faults() {
  FaultConfig cfg;
  cfg.drop = 0.3;
  cfg.duplicate = 0.2;
  cfg.reorder = 0.2;
  cfg.corrupt = 0.2;
  cfg.delay = 0.5;
  cfg.delay_max_s = 1.0;
  return cfg;
}

bool same_verdict(const FaultInjector::Verdict& a,
                  const FaultInjector::Verdict& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.reorder == b.reorder && a.corrupt == b.corrupt &&
         a.corrupt_offset == b.corrupt_offset &&
         a.corrupt_mask == b.corrupt_mask && a.delay_s == b.delay_s;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(mixed_faults(), 42);
  FaultInjector b(mixed_faults(), 42);
  FaultInjector c(mixed_faults(), 43);
  bool seed_matters = false;
  for (int i = 0; i < 50; ++i) {
    const auto va = a.judge(1, 0, 64);
    EXPECT_TRUE(same_verdict(va, b.judge(1, 0, 64))) << "message " << i;
    if (!same_verdict(va, c.judge(1, 0, 64))) seed_matters = true;
  }
  EXPECT_TRUE(seed_matters);
}

TEST(FaultInjector, ScheduleIsPerLinkIndependentOfInterleaving) {
  // The runner judges links from pool threads in nondeterministic order; the
  // per-link fault sequence must not depend on that interleaving.
  FaultInjector seq(mixed_faults(), 7);
  std::vector<FaultInjector::Verdict> link1, link2;
  for (int i = 0; i < 20; ++i) link1.push_back(seq.judge(1, 0, 128));
  for (int i = 0; i < 20; ++i) link2.push_back(seq.judge(2, 0, 128));

  FaultInjector mixed(mixed_faults(), 7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(same_verdict(mixed.judge(2, 0, 128), link2[i])) << i;
    EXPECT_TRUE(same_verdict(mixed.judge(1, 0, 128), link1[i])) << i;
  }
}

TEST(FaultInjector, DeadEndpointDropsEverything) {
  FaultConfig cfg;
  cfg.dead = {2};
  FaultInjector inj(cfg, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.judge(2, 0, 16).drop);  // uplink from the dead client
    EXPECT_TRUE(inj.judge(0, 2, 16).drop);  // downlink to it
    EXPECT_FALSE(inj.judge(1, 0, 16).drop);  // everyone else unaffected
  }
  EXPECT_EQ(inj.stats().drops, 20U);
}

TEST(FaultConfig, EnvOverridesApply) {
  ::setenv("APPFL_FAULT_DROP", "0.25", 1);
  ::setenv("APPFL_FAULT_DEAD", "3,9", 1);
  const FaultConfig cfg =
      appfl::core::with_env_overrides(appfl::core::RunConfig{}).faults;
  ::unsetenv("APPFL_FAULT_DROP");
  ::unsetenv("APPFL_FAULT_DEAD");
  EXPECT_DOUBLE_EQ(cfg.drop, 0.25);
  EXPECT_EQ(cfg.dead, (std::vector<std::uint32_t>{3, 9}));
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultConfig, EnvIgnoresUnparseableValues) {
  // Garbage must not be silently read as 0 (which would quietly disable a
  // fault campaign): the base value survives and bad dead-list tokens are
  // skipped.
  ::setenv("APPFL_FAULT_DROP", "not-a-number", 1);
  ::setenv("APPFL_FAULT_DELAY", "0.5x", 1);
  ::setenv("APPFL_FAULT_DEAD", "3,two,9", 1);
  appfl::core::RunConfig base;
  base.faults.drop = 0.125;
  const FaultConfig cfg = appfl::core::with_env_overrides(base).faults;
  ::unsetenv("APPFL_FAULT_DROP");
  ::unsetenv("APPFL_FAULT_DELAY");
  ::unsetenv("APPFL_FAULT_DEAD");
  EXPECT_DOUBLE_EQ(cfg.drop, 0.125);  // garbage leaves the base value
  EXPECT_DOUBLE_EQ(cfg.delay, 0.0);   // trailing junk rejected, not truncated
  EXPECT_EQ(cfg.dead, (std::vector<std::uint32_t>{3, 9}));
}

// -- CRC envelope --------------------------------------------------------------

TEST(Envelope, RoundTripsAndDetectsEverySingleBitFlip) {
  std::vector<std::uint8_t> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  const auto frame = appfl::comm::seal_envelope(payload);
  ASSERT_EQ(frame.size(), payload.size() + appfl::comm::kEnvelopeOverhead);
  const auto open = appfl::comm::open_envelope(frame);
  ASSERT_TRUE(open.has_value());
  EXPECT_TRUE(std::equal(open->begin(), open->end(), payload.begin(),
                         payload.end()));
  // CRC-32 detects all single-bit errors; a flip in the header (magic or
  // checksum field) must be caught too.
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = frame;
      damaged[byte] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_FALSE(appfl::comm::open_envelope(damaged).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
  EXPECT_FALSE(appfl::comm::open_envelope(
                   std::span<const std::uint8_t>(frame.data(), 7))
                   .has_value());
}

class FaultProtocolTest : public testing::TestWithParam<Protocol> {};

TEST_P(FaultProtocolTest, CorruptionIsCountedNeverFatal) {
  ReliabilityConfig rel;
  rel.faults.corrupt = 1.0;  // every message damaged in flight
  rel.gather_timeout_s = 1.0;
  Communicator comm(GetParam(), 1, 1, {}, rel);
  EXPECT_TRUE(comm.fault_plane_active());
  // Corrupted deliveries are CRC-discarded at the server, never acked: the
  // client must burn its whole retry budget and report the update lost.
  EXPECT_FALSE(comm.send_update(1, local_msg(1, 1, 64)));
  const auto locals = comm.gather_locals(1, 1);  // must not throw or hang
  EXPECT_TRUE(locals.empty());
  const auto stats = comm.stats();
  EXPECT_GE(stats.corruptions, 1U);
  EXPECT_GE(stats.crc_failures, 1U);
  EXPECT_EQ(stats.retries, rel.max_retries);
  EXPECT_EQ(stats.gather_timeouts, 1U);
}

TEST_P(FaultProtocolTest, CorruptedUplinkAcksMatchTheGatherExactly) {
  // Regression: a delivered-but-corrupted uplink used to report success
  // even though the server CRC-discards the frame, so the update vanished
  // with no retransmit. Corruption must behave like a drop to the sender:
  // retransmitted, and acked ⇔ gathered must hold exactly.
  ReliabilityConfig rel;
  rel.faults.corrupt = 0.5;
  rel.gather_timeout_s = 30.0;
  Communicator comm(GetParam(), 4, 9, {}, rel);
  std::size_t acked = 0;
  for (std::uint32_t c = 1; c <= 4; ++c) {
    acked += comm.send_update(c, local_msg(c, 1, 32)) ? 1U : 0U;
  }
  const auto locals = comm.gather_locals(1, 4);
  EXPECT_EQ(locals.size(), acked);  // acked ⇔ gathered, exactly
  const auto stats = comm.stats();
  EXPECT_GT(stats.corruptions, 0U);
  EXPECT_GT(stats.retries, 0U);
  EXPECT_GT(stats.crc_failures, 0U);
  EXPECT_GT(acked, 0U);  // with 5 attempts at p=0.5 someone gets through
}

TEST_P(FaultProtocolTest, DeadlineGatherReturnsPartialSetWithDeadClient) {
  ReliabilityConfig rel;
  rel.faults.dead = {2};
  rel.gather_timeout_s = 1.0;
  Communicator comm(GetParam(), 3, 1, {}, rel);
  comm.broadcast_global(global_msg(1, 32));
  for (std::uint32_t c = 1; c <= 3; ++c) {
    const auto g = comm.try_recv_global(c, 1);
    if (c == 2) {
      EXPECT_FALSE(g.has_value());  // downlink to the dead client was lost
      continue;
    }
    ASSERT_TRUE(g.has_value());
    comm.send_update(c, local_msg(c, 1, 32));
  }
  const auto locals = comm.gather_locals(1, 3);
  ASSERT_EQ(locals.size(), 2U);
  EXPECT_EQ(locals[0].sender, 1U);
  EXPECT_EQ(locals[1].sender, 3U);
  const auto stats = comm.stats();
  EXPECT_GT(stats.drops, 0U);
  EXPECT_EQ(stats.gather_timeouts, 1U);
}

TEST_P(FaultProtocolTest, DuplicateDeliveriesAreDiscardedAcrossRounds) {
  ReliabilityConfig rel;
  rel.faults.duplicate = 1.0;  // every delivery arrives twice
  rel.gather_timeout_s = 1.0;
  Communicator comm(GetParam(), 2, 1, {}, rel);
  comm.send_update(1, local_msg(1, 1, 16));
  comm.send_update(2, local_msg(2, 1, 16));
  const auto round1 = comm.gather_locals(1, 2);
  ASSERT_EQ(round1.size(), 2U);
  EXPECT_EQ(comm.stats().duplicates, 2U);
  // The second copy of the last-considered update is still queued; next
  // round it is stale and must be discarded, not absorbed.
  comm.send_update(1, local_msg(1, 2, 16));
  comm.send_update(2, local_msg(2, 2, 16));
  const auto round2 = comm.gather_locals(2, 2);
  ASSERT_EQ(round2.size(), 2U);
  for (const auto& m : round2) EXPECT_EQ(m.round, 2U);
  EXPECT_GE(comm.stats().discards, 2U);
}

TEST_P(FaultProtocolTest, RetransmitRecoversDroppedUplinks) {
  ReliabilityConfig rel;
  rel.faults.drop = 0.5;
  rel.gather_timeout_s = 30.0;
  Communicator comm(GetParam(), 4, 9, {}, rel);
  std::size_t delivered = 0;
  for (std::uint32_t c = 1; c <= 4; ++c) {
    delivered += comm.send_update(c, local_msg(c, 1, 32)) ? 1U : 0U;
  }
  const auto locals = comm.gather_locals(1, 4);
  EXPECT_EQ(locals.size(), delivered);  // acked ⇔ gathered, exactly
  const auto stats = comm.stats();
  EXPECT_GT(stats.drops, 0U);
  EXPECT_GT(stats.retries, 0U);
  EXPECT_GT(delivered, 0U);  // with 5 attempts at p=0.5 someone gets through
  // Every attempt's bytes hit the ledger.
  EXPECT_EQ(stats.messages_up, 4U + stats.retries);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FaultProtocolTest,
                         testing::Values(Protocol::kMpi, Protocol::kGrpc),
                         [](const testing::TestParamInfo<Protocol>& i) {
                           return appfl::comm::to_string(i.param);
                         });

TEST(Faults, DelayedUplinkPastDeadlineIsUnacked) {
  ReliabilityConfig rel;
  rel.faults.delay = 1.0;
  rel.faults.delay_max_s = 50.0;  // many deliveries land past the deadline
  rel.gather_timeout_s = 1.0;
  Communicator comm(Protocol::kMpi, 4, 3, {}, rel);
  std::size_t acked = 0;
  for (std::uint32_t c = 1; c <= 4; ++c) {
    acked += comm.send_update(c, local_msg(c, 1, 16)) ? 1U : 0U;
  }
  EXPECT_LT(acked, 4U);  // at least one draw in (1, 50] sim-seconds
  const auto locals = comm.gather_locals(1, 4);
  EXPECT_EQ(locals.size(), acked);  // the gather agrees with the acks
  EXPECT_GT(comm.stats().delays, 0U);
}

// -- Zero-fault bit-identity ---------------------------------------------------

TEST(Faults, InactivePlaneLeavesWireAndClockUntouched) {
  // With all probabilities zero the reliability knobs must be inert: same
  // bytes, same sim-clock, same results as a default-constructed
  // communicator, and every fault counter pinned at zero.
  struct Outcome {
    appfl::comm::TrafficStats stats;
    double clock_s = 0.0;
    bool active = false;
  };
  const auto run = [](ReliabilityConfig rel) {
    Communicator comm(Protocol::kGrpc, 3, 5, {}, rel);
    comm.broadcast_global(global_msg(1, 48));
    for (std::uint32_t c = 1; c <= 3; ++c) {
      comm.recv_global(c);
      comm.send_update(c, local_msg(c, 1, 48));
    }
    (void)comm.gather_locals(1);
    return Outcome{comm.stats(), comm.clock().now(),
                   comm.fault_plane_active()};
  };
  ReliabilityConfig tweaked;
  tweaked.gather_timeout_s = 0.001;  // would time out instantly if active
  tweaked.max_retries = 99;
  const Outcome a = run(ReliabilityConfig{});
  const Outcome b = run(tweaked);
  EXPECT_FALSE(a.active);
  const auto sa = a.stats, sb = b.stats;
  EXPECT_EQ(sa.bytes_up, sb.bytes_up);
  EXPECT_EQ(sa.bytes_down, sb.bytes_down);
  EXPECT_EQ(a.clock_s, b.clock_s);
  EXPECT_EQ(sa.drops + sa.duplicates + sa.reorders + sa.corruptions +
                sa.delays + sa.retries + sa.crc_failures + sa.discards +
                sa.gather_timeouts,
            0U);
}

// -- End-to-end: training under faults ----------------------------------------

appfl::data::FederatedSplit six_client_split() {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 6;
  spec.train_per_client = 64;
  spec.test_size = 256;
  spec.noise = 0.6;
  spec.seed = 11;
  return appfl::data::mnist_like(spec);
}

appfl::core::RunConfig fedavg_config() {
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 8;
  cfg.local_steps = 2;
  cfg.batch_size = 32;
  cfg.lr = 0.1F;
  cfg.seed = 11;
  cfg.validate_every_round = false;
  cfg.gather_timeout_s = 5.0;
  return cfg;
}

TEST(FaultsEndToEnd, FedAvgSurvivesDropsAndPermanentFailures) {
  // The acceptance scenario: 10% uplink/downlink drop plus two permanently
  // failed clients. All rounds must complete (no hang, no abort) and the
  // model must land near the fault-free accuracy.
  const auto split = six_client_split();
  appfl::core::RunConfig cfg = fedavg_config();
  const auto clean = appfl::core::run_federated(cfg, split);

  cfg.faults.drop = 0.10;
  cfg.faults.dead = {5, 6};
  const auto faulty = appfl::core::run_federated(cfg, split);

  ASSERT_EQ(faulty.rounds.size(), cfg.rounds);
  EXPECT_NEAR(faulty.final_accuracy, clean.final_accuracy, 0.02);
  EXPECT_GT(faulty.traffic.drops, 0U);
  EXPECT_GT(faulty.traffic.gather_timeouts, 0U);
  std::uint64_t drops = 0, timeouts = 0;
  for (const auto& r : faulty.rounds) {
    EXPECT_LE(r.responders, 4U);  // clients 5 and 6 never answer
    EXPECT_GE(r.responders, 1U);
    drops += r.drops;
    timeouts += r.timeouts;
  }
  EXPECT_EQ(drops, faulty.traffic.drops);  // per-round deltas add up
  EXPECT_EQ(timeouts, faulty.traffic.gather_timeouts);
  // The clean control saw no faults at all.
  EXPECT_EQ(clean.traffic.drops, 0U);
  EXPECT_EQ(clean.traffic.gather_timeouts, 0U);
}

TEST(FaultsEndToEnd, IIAdmmDualReplicasSurviveUplinkLoss) {
  // Lost uplinks make the server skip its dual replay; the client must roll
  // its speculative dual back or the replicas drift apart forever.
  const auto split = six_client_split();
  appfl::core::RunConfig cfg = fedavg_config();
  cfg.algorithm = appfl::core::Algorithm::kIIAdmm;
  cfg.rho = 2.0F;
  cfg.zeta = 2.0F;
  cfg.faults.drop = 0.3;
  cfg.max_uplink_retries = 0;  // single attempt ⇒ plenty of real losses
  cfg.gather_timeout_s = 2.0;

  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(std::make_unique<appfl::core::IIAdmmClient>(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  appfl::core::IIAdmmServer server(cfg, std::move(model), split.test,
                                   clients.size());
  const auto result = appfl::core::run_federated(cfg, server, clients);
  EXPECT_GT(result.traffic.drops, 0U);

  for (std::size_t p = 0; p < clients.size(); ++p) {
    const auto& client_dual =
        static_cast<appfl::core::IIAdmmClient&>(*clients[p]).dual();
    const auto& server_dual = server.dual(static_cast<std::uint32_t>(p + 1));
    ASSERT_EQ(client_dual.size(), server_dual.size());
    for (std::size_t i = 0; i < client_dual.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(client_dual[i]),
                std::bit_cast<std::uint32_t>(server_dual[i]))
          << "client " << p + 1 << " coord " << i;
    }
  }
}

TEST(FaultsEndToEnd, IIAdmmDualReplicasSurviveCorruptedUplinks) {
  // A corrupted uplink is delivered but CRC-discarded by the server, which
  // therefore never replays that round's dual update. The client must see
  // the corruption as a lost uplink (no ack) and roll its speculative dual
  // back — previously delivered-but-corrupt reported success and the dual
  // replicas drifted apart permanently.
  const auto split = six_client_split();
  appfl::core::RunConfig cfg = fedavg_config();
  cfg.algorithm = appfl::core::Algorithm::kIIAdmm;
  cfg.rho = 2.0F;
  cfg.zeta = 2.0F;
  cfg.faults.corrupt = 0.4;
  cfg.max_uplink_retries = 1;  // some updates stay lost through the budget
  cfg.gather_timeout_s = 2.0;

  auto model = appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(std::make_unique<appfl::core::IIAdmmClient>(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  appfl::core::IIAdmmServer server(cfg, std::move(model), split.test,
                                   clients.size());
  const auto result = appfl::core::run_federated(cfg, server, clients);
  EXPECT_GT(result.traffic.corruptions, 0U);
  EXPECT_GT(result.traffic.crc_failures, 0U);
  EXPECT_GT(result.traffic.retries, 0U);

  for (std::size_t p = 0; p < clients.size(); ++p) {
    const auto& client_dual =
        static_cast<appfl::core::IIAdmmClient&>(*clients[p]).dual();
    const auto& server_dual = server.dual(static_cast<std::uint32_t>(p + 1));
    ASSERT_EQ(client_dual.size(), server_dual.size());
    for (std::size_t i = 0; i < client_dual.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(client_dual[i]),
                std::bit_cast<std::uint32_t>(server_dual[i]))
          << "client " << p + 1 << " coord " << i;
    }
  }
}

TEST(FaultsEndToEnd, FaultScheduleIsDeterministicPerSeed) {
  // Whole-stack determinism under an active fault plane (MPI protocol: its
  // cost model is arrival-order invariant). Same seed ⇒ same drops, same
  // bytes, same final parameters-level accuracy.
  const auto split = six_client_split();
  appfl::core::RunConfig cfg = fedavg_config();
  cfg.rounds = 4;
  cfg.faults.drop = 0.2;
  cfg.faults.delay = 0.3;
  cfg.faults.delay_max_s = 1.0;
  const auto a = appfl::core::run_federated(cfg, split);
  const auto b = appfl::core::run_federated(cfg, split);
  EXPECT_EQ(a.traffic.drops, b.traffic.drops);
  EXPECT_EQ(a.traffic.retries, b.traffic.retries);
  EXPECT_EQ(a.traffic.bytes_up, b.traffic.bytes_up);
  EXPECT_EQ(a.traffic.delays, b.traffic.delays);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.sim_comm_seconds, b.sim_comm_seconds);

  cfg.seed = 12;
  const auto c = appfl::core::run_federated(cfg, split);
  EXPECT_NE(std::make_tuple(a.traffic.drops, a.traffic.bytes_up,
                            a.sim_comm_seconds),
            std::make_tuple(c.traffic.drops, c.traffic.bytes_up,
                            c.sim_comm_seconds));
}

}  // namespace

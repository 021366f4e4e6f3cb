// int8 error-feedback wire codec: symmetric block quantization, the Rice
// entropy layer, byte-exact serialization round trips, and the residual
// carry that makes the lossy wire converge — across rounds, across a
// Communicator snapshot/restore, and across a run kill/resume.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>

#include "comm/communicator.hpp"
#include "comm/compression.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "rng/distributions.hpp"

namespace {

namespace fs = std::filesystem;
using appfl::comm::Communicator;
using appfl::comm::Int8Ef;
using appfl::comm::Message;
using appfl::comm::MessageKind;
using appfl::comm::Protocol;
using appfl::comm::UplinkCodec;

std::vector<float> gaussian_vec(std::uint64_t seed, std::size_t n,
                                double sigma = 1.0) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(appfl::rng::normal(r, 0.0, sigma));
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Int8Quantize, RoundTripWithinHalfAStep) {
  const auto v = gaussian_vec(3, 2000);
  const Int8Ef q = appfl::comm::quantize_int8(v, 0.0F, 256);
  const auto back = appfl::comm::dequantize_int8(q);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float scale = q.scales[i / q.block];
    EXPECT_LE(std::abs(back[i] - v[i]), 0.5F * scale + 1e-12F);
  }
}

TEST(Int8Quantize, ZeroMapsToZeroExactly) {
  std::vector<float> v(100, 0.0F);
  v[7] = 3.0F;  // non-degenerate scale
  const auto back =
      appfl::comm::dequantize_int8(appfl::comm::quantize_int8(v));
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 7) {
      EXPECT_EQ(back[i], 0.0F);
    }
  }
  EXPECT_NEAR(back[7], 3.0F, 1e-6F);
}

TEST(Int8Quantize, ClipRangeCapsTheScale) {
  auto v = gaussian_vec(5, 512, 0.01);
  v[100] = 1000.0F;  // outlier that would wreck the block's resolution
  const Int8Ef clipped = appfl::comm::quantize_int8(v, 0.5F, 512);
  // Scale derives from the clipped magnitude, not the outlier.
  EXPECT_LE(clipped.scales[0], 0.5F / 127.0F + 1e-9F);
  const auto back = appfl::comm::dequantize_int8(clipped);
  EXPECT_NEAR(back[100], 0.5F, 0.5F / 127.0F);  // outlier pinned to the clip
}

TEST(Int8Quantize, PartialFinalBlockHandled) {
  const auto v = gaussian_vec(9, 777);  // 777 = 1×512 + 265
  const Int8Ef q = appfl::comm::quantize_int8(v);
  EXPECT_EQ(q.scales.size(), 2U);
  EXPECT_EQ(q.codes.size(), 777U);
  EXPECT_EQ(appfl::comm::dequantize_int8(q).size(), 777U);
}

TEST(Int8Wire, SerializationRoundTripsExactly) {
  for (const double sigma : {1.0, 0.001}) {
    const auto v = gaussian_vec(11, 3000, sigma);
    const Int8Ef q = appfl::comm::quantize_int8(v);
    const auto bytes = appfl::comm::encode_int8(q);
    const Int8Ef back = appfl::comm::decode_int8(bytes);
    EXPECT_EQ(back.size, q.size);
    EXPECT_EQ(back.block, q.block);
    ASSERT_EQ(back.scales.size(), q.scales.size());
    for (std::size_t b = 0; b < q.scales.size(); ++b) {
      EXPECT_EQ(back.scales[b], q.scales[b]);
    }
    EXPECT_EQ(back.codes, q.codes);
  }
}

TEST(Int8Wire, NearZeroDeltasBeatOneBytePerValue) {
  // Error-feedback residual streams concentrate near zero: most codes are
  // tiny, so the Rice layer should land well under quant8's 1 B/value.
  const std::size_t n = 20000;
  auto v = gaussian_vec(13, n, 1.0);
  for (auto& x : v) x *= 0.02F;      // small deltas...
  v[5] = 1.0F;                       // ...with the scale set by rare spikes
  const auto bytes = appfl::comm::encode_int8(appfl::comm::quantize_int8(v));
  EXPECT_LT(bytes.size(), n);  // < 1 byte per value, headers included
}

TEST(Int8Wire, IncompressibleBlocksTakeTheRawEscape) {
  // Full-range uniform codes: Rice cannot beat 1 B/value, so every block
  // must fall back to raw int8 and the wire must never expand past
  // size + per-block headers.
  appfl::rng::Rng r(17);
  std::vector<float> v(4096);
  for (auto& x : v) {
    x = static_cast<float>(static_cast<int>(r.uniform_below(255)) - 127);
  }
  const Int8Ef q = appfl::comm::quantize_int8(v);
  const auto bytes = appfl::comm::encode_int8(q);
  const std::size_t blocks = q.scales.size();
  EXPECT_LE(bytes.size(), 24 + blocks * 8 + v.size());
  EXPECT_EQ(appfl::comm::decode_int8(bytes).codes, q.codes);
}

TEST(Int8Wire, EmptyVectorRoundTrips) {
  const Int8Ef q = appfl::comm::quantize_int8(std::vector<float>{});
  const Int8Ef back = appfl::comm::decode_int8(appfl::comm::encode_int8(q));
  EXPECT_EQ(back.size, 0U);
  EXPECT_TRUE(back.codes.empty());
}

// -- Error feedback through the Communicator ---------------------------------

// One synthetic round: server broadcasts `w`, every client sends
// base + noise as its primal, and the decoded gathered primals are
// returned in sender order.
std::vector<std::vector<float>> run_round(Communicator& comm,
                                          std::uint32_t round,
                                          std::size_t m) {
  Message global;
  global.kind = MessageKind::kGlobalModel;
  global.sender = 0;
  global.round = round;
  global.primal = gaussian_vec(1000 + round, m);
  comm.broadcast_global(global);
  for (std::uint32_t c = 1; c <= 2; ++c) {
    const Message g = comm.recv_global(c);
    Message up;
    up.kind = MessageKind::kLocalUpdate;
    up.sender = c;
    up.round = round;
    up.primal = g.primal;
    const auto noise = gaussian_vec(round * 10 + c, m, 0.05);
    for (std::size_t i = 0; i < m; ++i) up.primal[i] += noise[i];
    up.sample_count = 10;
    comm.send_update(c, up);
  }
  std::vector<std::vector<float>> primals;
  for (auto& msg : comm.gather_locals(round, 2)) {
    primals.push_back(std::move(msg.primal));
  }
  return primals;
}

TEST(Int8Ef, ErrorFeedbackShrinksAccumulatedError) {
  // Over repeated rounds with the SAME client intent, the EF wire must
  // track the intent better than memoryless quantization: the residual
  // re-injects what the previous round dropped.
  const std::size_t m = 4096;
  const std::vector<float> base = gaussian_vec(21, m);
  const std::vector<float> intent = gaussian_vec(22, m, 0.1);

  Communicator comm(Protocol::kMpi, 1, 1, {UplinkCodec::kInt8Ef, 0.1});
  double first_err = 0.0, last_err = 0.0;
  std::vector<float> acc_sent(m, 0.0F);  // what the server saw, summed
  std::vector<float> acc_true(m, 0.0F);  // what the client meant, summed
  for (std::uint32_t round = 1; round <= 8; ++round) {
    Message global;
    global.kind = MessageKind::kGlobalModel;
    global.sender = 0;
    global.round = round;
    global.primal = base;
    comm.broadcast_global(global);
    const Message g = comm.recv_global(1);
    Message up;
    up.kind = MessageKind::kLocalUpdate;
    up.sender = 1;
    up.round = round;
    up.primal.resize(m);
    for (std::size_t i = 0; i < m; ++i) up.primal[i] = base[i] + intent[i];
    up.sample_count = 1;
    comm.send_update(1, up);
    const auto got = comm.gather_locals(round, 1);
    ASSERT_EQ(got.size(), 1U);
    double err = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      acc_sent[i] += got[0].primal[i] - base[i];
      acc_true[i] += intent[i];
      const double e = acc_sent[i] - acc_true[i];
      err += e * e;
    }
    if (round == 1) first_err = err;
    last_err = err;
  }
  // Without feedback the accumulated-sum error would grow ~linearly in
  // round count; with it the error stays bounded near one round's worth.
  EXPECT_LT(last_err, 4.0 * first_err);
}

TEST(Int8Ef, ResidualCarriesAcrossSnapshotRestore) {
  const std::size_t m = 2048;
  Communicator uninterrupted(Protocol::kMpi, 2, 9,
                             {UplinkCodec::kInt8Ef, 0.1});
  Communicator before_restart(Protocol::kMpi, 2, 9,
                              {UplinkCodec::kInt8Ef, 0.1});

  const auto r1a = run_round(uninterrupted, 1, m);
  const auto r1b = run_round(before_restart, 1, m);
  ASSERT_EQ(r1a.size(), 2U);
  for (std::size_t c = 0; c < 2; ++c) EXPECT_TRUE(same_bits(r1a[c], r1b[c]));

  // Simulated restart between rounds: a fresh communicator restored from
  // the snapshot must continue bit-identically...
  const appfl::comm::CommState snap = before_restart.persistent_state();
  ASSERT_EQ(snap.ef_residuals.size(), 2U);
  EXPECT_FALSE(snap.ef_residuals[0].empty());  // round 1 left a residual
  Communicator resumed(Protocol::kMpi, 2, 9, {UplinkCodec::kInt8Ef, 0.1});
  resumed.restore_persistent_state(snap);
  const auto r2a = run_round(uninterrupted, 2, m);
  const auto r2b = run_round(resumed, 2, m);
  for (std::size_t c = 0; c < 2; ++c) EXPECT_TRUE(same_bits(r2a[c], r2b[c]));

  // ...while a fresh communicator WITHOUT the residual diverges — the
  // carry is observable, so the test above has teeth.
  Communicator amnesiac(Protocol::kMpi, 2, 9, {UplinkCodec::kInt8Ef, 0.1});
  appfl::comm::CommState wiped = snap;
  for (auto& r : wiped.ef_residuals) r.clear();
  amnesiac.restore_persistent_state(wiped);
  const auto r2c = run_round(amnesiac, 2, m);
  EXPECT_FALSE(same_bits(r2a[0], r2c[0]));
}

// -- End to end through the runner -------------------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(Int8Ef, CutsUplinkFourFoldAtMatchedAccuracy) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = 64;
  spec.test_size = 128;
  spec.seed = 131;
  const auto split = appfl::data::mnist_like(spec);

  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kMlp;
  cfg.mlp_hidden = 32;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.batch_size = 32;
  cfg.seed = 131;
  cfg.validate_every_round = false;
  const auto raw = appfl::core::run_federated(cfg, split);
  cfg.uplink_codec = UplinkCodec::kInt8Ef;
  const auto ef = appfl::core::run_federated(cfg, split);

  const double ratio = static_cast<double>(raw.traffic.bytes_up) /
                       static_cast<double>(ef.traffic.bytes_up);
  EXPECT_GE(ratio, 4.0);  // the ISSUE's ≥4× wire-volume target
  EXPECT_EQ(raw.traffic.bytes_down, ef.traffic.bytes_down);
  EXPECT_NEAR(ef.final_accuracy, raw.final_accuracy, 0.05);
}

TEST(Int8Ef, KillAndResumeBitIdenticalWithResidualInCheckpoint) {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 3;
  spec.train_per_client = 32;
  spec.test_size = 64;
  spec.seed = 91;
  const auto split = appfl::data::mnist_like(spec);

  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 6;
  cfg.local_steps = 2;
  cfg.batch_size = 16;
  cfg.seed = 7;
  cfg.validate_every_round = false;
  cfg.uplink_codec = UplinkCodec::kInt8Ef;
  const auto full = appfl::core::run_federated(cfg, split);

  for (std::uint32_t k = 1; k <= 3; ++k) {
    TempDir dir("appfl_int8_resume_r" + std::to_string(k));
    appfl::core::RunConfig killed = cfg;
    killed.checkpoint_dir = dir.str();
    killed.halt_after_round = k;
    (void)appfl::core::run_federated(killed, split);
    appfl::core::RunConfig resumed = cfg;
    resumed.checkpoint_dir = dir.str();
    resumed.resume_from = dir.str();
    const auto back = appfl::core::run_federated(resumed, split);
    // The checkpoint carries the per-client EF residuals; without them the
    // resumed quantization stream — and thus the final model — would drift.
    EXPECT_TRUE(same_bits(full.final_parameters, back.final_parameters))
        << "kill at round " << k;
  }
}

}  // namespace
